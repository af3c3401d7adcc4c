// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in nanoseconds and fires events
// ordered by (time, insertion sequence), so events scheduled for the same
// instant fire in FIFO order and every run with the same inputs produces
// exactly the same trace. All simulation state is owned by the goroutine
// that calls Run; cooperating simulated processes (see Proc) are scheduled
// one at a time, so user code never needs locks.
//
// The queue is one binary min-heap ordered by (time, seq). It serves mostly
// timed work — wire frames, pin chunks, bottom halves, protocol timers —
// and holds tens to hundreds of events when the clock advances (see
// PERFORMANCE.md). Scheduling, firing and cancelling are O(log n). Every
// event object is pooled and reused once its event fires or is cancelled,
// so scheduling does not allocate in steady state; callers hold Event
// handles, which a reused object cannot alias.
package sim

import (
	"fmt"
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

// Event is a handle to a scheduled callback, returned by At and After so
// callers can cancel it before it fires. It is a small value; the zero
// Event refers to no event.
//
// The engine reuses the object behind a handle once its event fires or is
// cancelled. A handle is stamped with the sequence number its event was
// scheduled with, which no later schedule reuses, so the number is the
// handle's generation: a handle kept after its event fired or was
// cancelled is stale, never aliased. Cancel and Pending on it report
// false, at every delay, zero included, and leave the object's new event
// alone.
type Event struct {
	ev  *event
	seq uint64
}

// event is the pooled object behind an Event handle.
type event struct {
	when Time
	seq  uint64
	fn   func()
	eng  *Engine
	// index is the event's position in the engine's heap while it is
	// pending, and -1 once it has fired or been cancelled.
	index int
	// daemon marks background events (recurring kernel work like kswapd)
	// that must not keep Run alive: Run stops once only daemon events
	// remain pending.
	daemon bool
}

// Pending reports whether the event is still scheduled: neither fired nor
// cancelled.
func (h Event) Pending() bool {
	return h.ev != nil && h.ev.seq == h.seq && h.ev.index >= 0
}

// Cancel prevents the event from firing and reports whether it was still
// pending. Cancelling an event that already fired or was already cancelled,
// or the zero Event, is a no-op. The event leaves the heap at once, in
// O(log n).
func (h Event) Cancel() bool {
	if !h.Pending() {
		return false
	}
	e := h.ev.eng
	e.queue.remove(h.ev.index)
	if h.ev.daemon {
		e.daemonPending--
	}
	e.release(h.ev)
	return true
}

// eventHeap is a binary min-heap ordered by (when, seq), specialized for
// *event to avoid the any-boxing and interface dispatch of container/heap
// on the scheduling hot path. Each event records its own index, so any
// event can be removed in O(log n).
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// remove takes the event at index i out of the heap and returns it.
func (h *eventHeap) remove(i int) *event {
	s := *h
	n := len(s) - 1
	if i != n {
		s.swap(i, n)
	}
	ev := s[n]
	s[n] = nil
	ev.index = -1
	*h = s[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	return ev
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts the event at i toward the leaves and reports whether it moved.
func (h eventHeap) down(i0 int) bool {
	i, n := i0, len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64
	rng *rand.Rand
	// stepHook, when non-nil, is invoked before each event fires. Used by
	// tests to observe the trace.
	stepHook func(Time)
	fired    uint64
	// daemonFired counts the subset of fired events that were daemon work.
	// Background ticks keep firing up to whatever instant a run loop (or a
	// shard window boundary) stops at, so their count depends on the shard
	// layout; foreground-only counts are the shard-invariant quantity.
	daemonFired uint64
	// daemonPending counts the pending events that are daemon (background)
	// work; Run stops when they are all that is left.
	daemonPending int
	// lastFgTime is the timestamp of the most recent foreground (non-daemon)
	// event fired. A windowed run's clock ends at the window boundary, not at
	// the last piece of real work; ShardSet uses this to report the same
	// end-of-simulation time a plain Run would have stopped at.
	lastFgTime Time

	// queue holds every pending event, and nothing else.
	queue eventHeap
	// pool holds the event objects that are not pending, for reuse.
	pool []*event
}

// NewEngine returns an engine with the clock at zero and a deterministic
// random source seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
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
// cancelled: the size of the heap, which holds no other entries.
func (e *Engine) Pending() int { return len(e.queue) }

// ForegroundPending reports the pending events that are not daemon work —
// the count whose reaching zero ends a Run. The shard coordinator sums it
// across engines to decide global termination.
func (e *Engine) ForegroundPending() int { return len(e.queue) - e.daemonPending }

// LastForegroundTime reports when the most recent non-daemon event fired.
// After a drained Run this equals Now(); after a windowed run (RunUntil)
// the clock sits at the window boundary and this is the time Run would
// have stopped at.
func (e *Engine) LastForegroundTime() Time { return e.lastFgTime }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// a discrete-event simulation cannot rewind its clock, and silently clamping
// would hide bugs in the caller's time arithmetic.
func (e *Engine) At(t Time, fn func()) Event { return e.schedule(t, fn, false) }

// schedule queues fn at t, on a pooled event object when one is free.
func (e *Engine) schedule(t Time, fn func(), daemon bool) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool = e.pool[:n-1]
	} else {
		ev = &event{eng: e}
	}
	ev.when, ev.seq, ev.fn, ev.daemon = t, e.seq, fn, daemon
	e.seq++
	if daemon {
		e.daemonPending++
	}
	e.queue.push(ev)
	return Event{ev, ev.seq}
}

// release returns an event that left the heap to the pool. Its seq stays,
// so handles to it read it as fired or cancelled until At reuses it.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	e.pool = append(e.pool, ev)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// nextTime reports the earliest pending event time without firing anything.
func (e *Engine) nextTime() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].when, true
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool { return e.step(maxTime) }

// maxTime is the no-deadline sentinel for step.
const maxTime = Time(1<<63 - 1)

// step fires the next pending event if its timestamp is <= deadline, and
// reports whether it did.
func (e *Engine) step(deadline Time) bool {
	if len(e.queue) == 0 || e.queue[0].when > deadline {
		return false
	}
	ev := e.queue.remove(0)
	e.now = ev.when
	fn := ev.fn
	if ev.daemon {
		e.daemonPending--
		e.daemonFired++
	} else {
		e.lastFgTime = e.now
	}
	e.release(ev)
	if e.stepHook != nil {
		e.stepHook(e.now)
	}
	e.fired++
	fn()
	return true
}

// Run fires events until only daemon events remain. Daemon events still
// fire while foreground events remain — they just cannot keep the
// simulation alive on their own.
func (e *Engine) Run() {
	for len(e.queue) > e.daemonPending && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, leaving later events
// queued, and advances the clock to deadline. Unlike Run, daemon events
// keep firing through the whole window even when no foreground work
// remains — the deadline already bounds termination, and background
// work like kswapd must run during idle windows (that is its job).
func (e *Engine) RunUntil(deadline Time) {
	for e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}
