// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in nanoseconds and fires events
// ordered by (time, insertion sequence), so events scheduled for the same
// instant fire in FIFO order and every run with the same inputs produces
// exactly the same trace. All simulation state is owned by the goroutine
// that calls Run; cooperating simulated processes (see Proc) are scheduled
// one at a time, so user code never needs locks.
//
// Internally the queue is tiered by distance-to-now (see PERFORMANCE.md):
//
//   - a zero-delay FIFO ring serves After(0, …) wakeups — the vast majority
//     of events (completions, queue/semaphore wakeups, process yields) —
//     with O(1) push/pop and pooled Event objects (no allocation);
//   - a 4-level hierarchical timer wheel (256 slots per level, covering
//     2^8·2^8k ns at level k) serves timed events up to ~4.3 simulated
//     seconds out with O(1) scheduling;
//   - a binary heap holds the rare far-future events beyond the wheel.
//
// The tiers never reorder events: the dispatch loop always fires the
// globally minimal (time, seq) pair, which a golden-trace test checks
// against a heap-only reference mode.
package sim

import (
	"fmt"
	bits64 "math/bits"
	"math/rand"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders the time with an adaptive unit, e.g. "12.5us".
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/1e3)
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(t)/1e9)
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Event scheduling state.
const (
	evPending   uint8 = iota // scheduled, not yet fired
	evFired                  // callback ran (or event was recycled)
	evCancelled              // Cancel'd before firing
)

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it before it fires.
//
// Zero-delay events (After(0, …) and At(now, …)) are pooled: once such an
// event fires, the engine recycles the Event object for a later zero-delay
// schedule. Cancelling a zero-delay event is valid only until the instant it
// was scheduled for has been processed; retaining one across engine steps
// and cancelling it later is a bug (it may cancel an unrelated recycled
// event). Timed events (d > 0) are never recycled, so the historical
// "Cancel after fire is a no-op" contract still holds for them.
type Event struct {
	when  Time
	seq   uint64
	fn    func()
	eng   *Engine
	index int // heap index while in the overflow heap, -1 otherwise
	state uint8
	// pooled marks zero-delay events eligible for recycling after firing.
	pooled bool
	// daemon marks background events (recurring kernel work like kswapd)
	// that must not keep Run/RunUntil alive: the run loops stop once only
	// daemon events remain pending.
	daemon bool
}

// When reports the simulated time at which the event will fire.
func (ev *Event) When() Time { return ev.when }

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled) is a no-op. Cancel reports whether the
// event was still pending. It works on every queue tier, including the
// zero-delay fast path.
func (ev *Event) Cancel() bool {
	if ev == nil || ev.state != evPending {
		return false
	}
	ev.state = evCancelled
	ev.fn = nil
	if ev.eng != nil {
		ev.eng.pending--
		if ev.daemon {
			ev.eng.daemonPending--
		}
	}
	return true
}

// eventHeap is a binary min-heap ordered by (when, seq), specialized for
// *Event to avoid the any-boxing and interface dispatch of container/heap
// on the scheduling hot path.
type eventHeap []*Event

func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() *Event {
	s := *h
	n := len(s) - 1
	s.Swap(0, n)
	ev := s[n]
	s[n] = nil
	ev.index = -1
	*h = s[:n]
	if n > 0 {
		h.down(0)
	}
	return ev
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && h.Less(r, l) {
			j = r
		}
		if !h.Less(j, i) {
			return
		}
		h.Swap(i, j)
		i = j
	}
}

// Timer-wheel geometry: wheelLevels levels of wheelSlots slots; level k has
// slot granularity 2^(wheelBits·k) ns, so level k as a whole spans
// 2^(wheelBits·(k+1)) ns. Events beyond the last level go to the overflow
// heap.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// wheelSpan is the horizon covered by the wheel (~4.3 s); deltas at or
	// beyond it overflow to the heap.
	wheelSpan = Time(1) << (wheelBits * wheelLevels)
)

// wheelLevel is one wheel tier: 256 slots plus an occupancy bitmap for O(1)
// next-occupied-slot scans and a cached per-slot minimum timestamp so the
// dispatch loop never walks slot contents while searching. The cached min is
// exact under inserts and may only go stale LOW when an event is cancelled;
// the dispatch loop tolerates that by extracting the slot at the stale
// instant and re-filing the leftovers (which recomputes the min).
type wheelLevel struct {
	slots   [wheelSlots][]*Event
	slotMin [wheelSlots]Time
	occupy  [wheelSlots / 64]uint64
}

func (w *wheelLevel) occupied(slot int) bool {
	return w.occupy[slot>>6]&(1<<(uint(slot)&63)) != 0
}

func (w *wheelLevel) insert(slot int, ev *Event) {
	if !w.occupied(slot) {
		w.occupy[slot>>6] |= 1 << (uint(slot) & 63)
		w.slotMin[slot] = ev.when
	} else if ev.when < w.slotMin[slot] {
		w.slotMin[slot] = ev.when
	}
	w.slots[slot] = append(w.slots[slot], ev)
}

func (w *wheelLevel) unmark(slot int) { w.occupy[slot>>6] &^= 1 << (uint(slot) & 63) }

// nextOccupied returns the first occupied slot at or after from in circular
// order, along with how many slots away it is (0..wheelSlots-1), or ok=false
// when the level is empty.
func (w *wheelLevel) nextOccupied(from int) (slot, dist int, ok bool) {
	// Scan the 4 occupancy words starting at from's word, wrapping once.
	for i := 0; i <= wheelSlots/64; i++ {
		word := (from>>6 + i) % (wheelSlots / 64)
		bits := w.occupy[word]
		if i == 0 {
			bits &= ^uint64(0) << (uint(from) & 63)
		}
		if i == wheelSlots/64 {
			// Wrapped fully: only slots strictly before from remain.
			bits &= (1 << (uint(from) & 63)) - 1
		}
		if bits != 0 {
			s := word<<6 + bits64.TrailingZeros64(bits)
			d := s - from
			if d < 0 {
				d += wheelSlots
			}
			return s, d, true
		}
	}
	return 0, 0, false
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	rng     *rand.Rand
	stopped bool
	// stepHook, when non-nil, is invoked before each event fires. Used by
	// tests to observe the trace.
	stepHook func(Time)
	fired    uint64
	// daemonFired counts the subset of fired events that were daemon work.
	// Background ticks keep firing up to whatever instant a run loop (or a
	// shard window boundary) stops at, so their count depends on the shard
	// layout; foreground-only counts are the shard-invariant quantity.
	daemonFired uint64
	pending     int // live (scheduled, not fired, not cancelled) events
	// daemonPending counts the subset of pending events that are daemon
	// (background) work; Run/RunUntil stop when pending == daemonPending.
	daemonPending int
	// recurrings tracks live Every handles so RunUntil's clock bump can
	// re-arm ticks it jumped past (see rearmStaleRecurrings).
	recurrings []*Recurring
	// lastFgTime is the timestamp of the most recent foreground (non-daemon)
	// event fired. A windowed run's clock ends at the window boundary, not at
	// the last piece of real work; ShardSet uses this to report the same
	// end-of-simulation time a plain Run would have stopped at.
	lastFgTime Time

	// Tier 0: zero-delay FIFO ring (events with when == now).
	fastq    []*Event
	fastHead int

	// cur holds the events of the instant currently being fired, extracted
	// from the wheel/heap and sorted by seq. They always precede any fastq
	// event scheduled during the same instant (their seqs are older).
	cur    []*Event
	curIdx int
	// scratch is reused by loadInstant for slot extraction.
	scratch []*Event

	// Tier 1: hierarchical timer wheel.
	wheel [wheelLevels]*wheelLevel

	// Tier 2: far-future overflow heap (also the only queue in legacy mode).
	overflow eventHeap

	// pool recycles zero-delay Event objects.
	pool []*Event

	// legacyHeap routes every event through the overflow heap, bypassing the
	// fast path and the wheel. It exists so tests can golden-trace the fast
	// engine against the reference single-tier implementation.
	legacyHeap bool
}

// NewEngine returns an engine with the clock at zero and a deterministic
// random source seeded with seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed))}
	for i := range e.wheel {
		e.wheel[i] = &wheelLevel{}
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsFired reports how many events have executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// ForegroundEventsFired reports how many non-daemon events have executed.
// Unlike EventsFired it excludes background ticks (kswapd and friends),
// whose count depends on where a run or shard window happens to stop, so
// this is the number that stays identical across shard layouts.
func (e *Engine) ForegroundEventsFired() uint64 { return e.fired - e.daemonFired }

// Pending reports how many events are scheduled and not yet fired or
// cancelled. It is O(1): the engine maintains a live-event counter updated
// on every schedule, fire, and cancel.
func (e *Engine) Pending() int { return e.pending }

// ForegroundPending reports the pending events that are not daemon work —
// the count whose reaching zero ends a Run. The shard coordinator sums it
// across engines to decide global termination.
func (e *Engine) ForegroundPending() int { return e.pending - e.daemonPending }

// LastForegroundTime reports when the most recent non-daemon event fired.
// After a drained Run this equals Now(); after a windowed run (RunUntil)
// the clock sits at the window boundary and this is the time Run would
// have stopped at.
func (e *Engine) LastForegroundTime() Time { return e.lastFgTime }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// a discrete-event simulation cannot rewind its clock, and silently clamping
// would hide bugs in the caller's time arithmetic.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if t == e.now && !e.legacyHeap {
		// Zero-delay fast path: pooled event, FIFO ring.
		if n := len(e.pool); n > 0 {
			ev = e.pool[n-1]
			e.pool[n-1] = nil
			e.pool = e.pool[:n-1]
			ev.when, ev.seq, ev.fn, ev.state, ev.daemon = t, e.seq, fn, evPending, false
		} else {
			ev = &Event{when: t, seq: e.seq, fn: fn, eng: e, index: -1, pooled: true}
		}
		e.seq++
		e.pending++
		e.fastq = append(e.fastq, ev)
		return ev
	}
	ev = &Event{when: t, seq: e.seq, fn: fn, eng: e, index: -1}
	e.seq++
	e.pending++
	e.schedule(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// schedule places a timed event on the wheel tier matching its delay, or the
// overflow heap beyond the wheel horizon (always the heap in legacy mode).
func (e *Engine) schedule(ev *Event) {
	if e.legacyHeap {
		e.overflow.push(ev)
		return
	}
	// Pick the shallowest level where the event's block is within the
	// 256-slot window of now's block. Comparing block indices (not raw
	// deltas) guarantees each slot ever holds a single block's events: two
	// events sharing a slot have block indices congruent mod 256 and both
	// within 255 of now's block, hence equal.
	for level := 0; level < wheelLevels; level++ {
		shift := uint(wheelBits * level)
		if (ev.when>>shift)-(e.now>>shift) < wheelSlots {
			e.wheel[level].insert(int(ev.when>>shift)&wheelMask, ev)
			return
		}
	}
	e.overflow.push(ev)
}

// nextTime reports the earliest pending event time without firing anything.
func (e *Engine) nextTime() (Time, bool) {
	if e.curIdx < len(e.cur) || e.fastHead < len(e.fastq) {
		// Skip over cancelled entries: they must not advance the clock.
		for i := e.curIdx; i < len(e.cur); i++ {
			if e.cur[i].state == evPending {
				return e.now, true
			}
		}
		for i := e.fastHead; i < len(e.fastq); i++ {
			if e.fastq[i].state == evPending {
				return e.now, true
			}
		}
	}
	best := Time(-1)
	// Each level: the first occupied slot in circular block order is the
	// level's earliest block; its cached min is the candidate. The cached
	// min is a lower bound (cancellations can leave it stale low), which the
	// caller tolerates: loading a stale instant extracts and re-files the
	// slot, firing nothing.
	for k := 0; k < wheelLevels; k++ {
		w := e.wheel[k]
		from := (int(e.now) >> (wheelBits * k)) & wheelMask
		if k == 0 {
			from = (from + 1) & wheelMask
		}
		if slot, _, ok := w.nextOccupied(from); ok {
			if t := w.slotMin[slot]; best < 0 || t < best {
				best = t
			}
		}
	}
	if t, ok := e.heapMin(); ok && (best < 0 || t < best) {
		best = t
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// clearSlot empties a slot, dropping any remaining (cancelled) events.
func (e *Engine) clearSlot(w *wheelLevel, slot int) {
	s := w.slots[slot]
	for i := range s {
		s[i] = nil
	}
	w.slots[slot] = s[:0]
	w.unmark(slot)
}

// heapMin reports the minimum live event time in the overflow heap, lazily
// removing cancelled events from its top.
func (e *Engine) heapMin() (Time, bool) {
	for len(e.overflow) > 0 {
		if e.overflow[0].state != evPending {
			e.overflow.pop()
			continue
		}
		return e.overflow[0].when, true
	}
	return 0, false
}

// loadInstant gathers every event scheduled for exactly t from the wheel
// and the heap into cur, sorted by seq, and advances the clock to t if any
// live event was found (cancelled events must not move the clock). Events
// sharing a wheel slot but scheduled for a later time are re-filed (this is
// the wheel's cascade, performed exactly when the clock reaches the slot;
// re-filing also recomputes slot minimums left stale by cancellations).
func (e *Engine) loadInstant(t Time) {
	e.cur = e.cur[:0]
	e.curIdx = 0
	for k := 0; k < wheelLevels; k++ {
		w := e.wheel[k]
		slot := int(t>>(wheelBits*k)) & wheelMask
		if len(w.slots[slot]) == 0 {
			continue
		}
		// Move the slot contents to a scratch list so re-filed leftovers can
		// reuse the slot's backing array.
		e.scratch = append(e.scratch[:0], w.slots[slot]...)
		e.clearSlot(w, slot)
		for i, ev := range e.scratch {
			e.scratch[i] = nil
			if ev.state != evPending {
				e.recycle(ev)
				continue
			}
			if ev.when == t {
				e.cur = append(e.cur, ev)
				continue
			}
			e.schedule(ev)
		}
	}
	for len(e.overflow) > 0 {
		top := e.overflow[0]
		if top.state != evPending {
			e.overflow.pop()
			continue
		}
		if top.when != t {
			break
		}
		e.cur = append(e.cur, e.overflow.pop())
	}
	// Events may come from several tiers; restore global FIFO order.
	insertionSortBySeq(e.cur)
	if len(e.cur) > 0 {
		e.now = t
	}
}

// insertionSortBySeq sorts a small, mostly-ordered batch in place without
// allocating.
func insertionSortBySeq(evs []*Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].seq < evs[j-1].seq; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// fire runs one event's callback.
func (e *Engine) fire(ev *Event) {
	fn := ev.fn
	ev.fn = nil
	ev.state = evFired
	e.pending--
	if ev.daemon {
		e.daemonPending--
		e.daemonFired++
	} else {
		e.lastFgTime = e.now
	}
	if ev.pooled {
		e.pool = append(e.pool, ev)
	}
	if e.stepHook != nil {
		e.stepHook(e.now)
	}
	e.fired++
	fn()
}

// recycle returns a cancelled pooled event to the pool.
func (e *Engine) recycle(ev *Event) {
	if ev.pooled {
		ev.fn = nil
		e.pool = append(e.pool, ev)
	}
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool { return e.step(maxTime) }

// maxTime is the no-deadline sentinel for step.
const maxTime = Time(1<<63 - 1)

// step fires the next pending event with timestamp <= deadline. The
// deadline is re-checked every time a candidate instant is derived: the
// per-slot cached minimums are only lower bounds (cancellations leave them
// stale low), so a single nextTime() answer must never authorize firing
// whatever live event comes next — only an exact instant may fire.
func (e *Engine) step(deadline Time) bool {
	for {
		if (e.curIdx < len(e.cur) || e.fastHead < len(e.fastq)) && e.now > deadline {
			return false
		}
		if e.fireCurrent() {
			return true
		}
		if e.legacyHeap {
			for len(e.overflow) > 0 {
				if e.overflow[0].state != evPending {
					e.overflow.pop()
					continue
				}
				if e.overflow[0].when > deadline {
					return false
				}
				ev := e.overflow.pop()
				e.now = ev.when
				e.fire(ev)
				return true
			}
			return false
		}
		t, ok := e.nextTime()
		if !ok || t > deadline {
			return false
		}
		e.load(t)
	}
}

// fireCurrent fires the next live event of the current instant and reports
// false once the instant is drained. Events extracted from the wheel fire
// before fastq events of the same instant: their seqs are strictly older
// (they were scheduled before the clock reached this instant). Both queues
// hold events at exactly e.now.
func (e *Engine) fireCurrent() bool {
	for e.curIdx < len(e.cur) {
		ev := e.cur[e.curIdx]
		e.cur[e.curIdx] = nil
		e.curIdx++
		if ev.state != evPending {
			e.recycle(ev)
			continue
		}
		e.fire(ev)
		return true
	}
	for e.fastHead < len(e.fastq) {
		ev := e.fastq[e.fastHead]
		e.fastq[e.fastHead] = nil
		e.fastHead++
		if e.fastHead == len(e.fastq) {
			e.fastq = e.fastq[:0]
			e.fastHead = 0
		}
		if ev.state != evPending {
			e.recycle(ev)
			continue
		}
		e.fire(ev)
		return true
	}
	return false
}

// load makes instant t, a nextTime answer, the current one. An instant at
// or before now can only hold events that were cancelled before a RunUntil
// clock bump jumped past them (the wheel's cached slot minimums do not see
// cancellation): loadInstant sweeps it, dropping the cancelled events and
// re-filing live slot-mates with later timestamps, and only a live event
// genuinely in the past breaks the queue invariant.
func (e *Engine) load(t Time) {
	past := t <= e.now
	e.loadInstant(t)
	if past && e.curIdx < len(e.cur) {
		panic(fmt.Sprintf("sim: queue invariant broken: next event at %v with now %v", t, e.now))
	}
}

// fireWindow fires every event up to end and reports the first pending
// instant past it (ok=false: none). first is the nextTime answer the caller
// already holds, so the window opens without a queue scan and closes on
// the scan that finds its successor. A one-engine ShardSet drives its
// windows through it. (Not for legacyHeap engines.)
func (e *Engine) fireWindow(first, end Time) (Time, bool) {
	t, ok := first, true
	if e.fireCurrent() {
		// The window opens at now, with the instant not yet drained.
		for e.fireCurrent() {
		}
		t, ok = e.nextTime()
	}
	for ok && t <= end {
		e.load(t)
		for e.fireCurrent() {
		}
		t, ok = e.nextTime()
	}
	return t, ok
}

// Run fires events until the queue drains (only daemon events left) or
// Stop is called. Daemon events still fire while foreground events remain
// — they just cannot keep the simulation alive on their own.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.pending > e.daemonPending && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, leaving later events
// queued, and advances the clock to deadline. Unlike Run, daemon events
// keep firing through the whole window even when no foreground work
// remains — the deadline already bounds termination, and background
// work like kswapd must run during idle windows (that is its job).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
	// A Stop() mid-window can leave daemon ticks armed at or before the
	// bumped clock; re-file them after now so a later Run/Step never
	// finds an event in the past.
	e.rearmStaleRecurrings()
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }
