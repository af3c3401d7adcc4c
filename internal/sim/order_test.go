package sim

import (
	"slices"
	"testing"
)

// FuzzEngineOrder decodes a byte stream into scheduling, cancelling and
// running operations, plays it on an Engine and on refQueue, a brute-force
// reference, and checks that both fire the same (time, id) trace and agree
// on Now, EventsFired and Pending after every top-level operation. It
// cancels any retained handle, fired or not, so a stale handle whose
// pooled object carries a later event must cancel nothing.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048] // the reference is quadratic
		}
		got := playOrder(engineQueue{NewEngine(1)}, data)
		want := playOrder(&refQueue{}, data)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("step %d: engine %+v, reference %+v\nengine tail:    %+v\nreference tail: %+v",
				i, stepAt(got, i), stepAt(want, i), got[max(0, i-8):min(len(got), i+1)],
				want[max(0, i-8):min(len(want), i+1)])
		}
	})
}

// orderDelays are the delays the fuzzer draws from: zero, the edges of
// 2^8, 2^16 and 2^24 ns, and timers 200 ms, ~4.3 s and 6 s out.
var orderDelays = []Duration{0, 1, 255, 256, 257, 65_535, 65_536, 1<<24 - 1, 1 << 24,
	200 * Millisecond, 1<<32 + 12_345, 6 * Second}

// orderMaxTicks bounds the daemon ticks of one input: past it, every tick
// stops its own task.
const orderMaxTicks = 300

// orderQueue is what playOrder drives: the Engine or the reference.
type orderQueue interface {
	Now() Time
	EventsFired() uint64
	Pending() int
	Step() bool
	Run()
	RunUntil(Time)
	after(d Duration, fn func()) (cancel func() bool)
	at(t Time, fn func()) (cancel func() bool)
	every(period Duration, fn func()) (stop func())
}

type engineQueue struct{ *Engine }

func (q engineQueue) after(d Duration, fn func()) func() bool { return q.After(d, fn).Cancel }
func (q engineQueue) at(t Time, fn func()) func() bool        { return q.At(t, fn).Cancel }
func (q engineQueue) every(p Duration, fn func()) func()      { return q.Every(p, fn).Stop }

// refQueue is the reference: an unordered slice of pending events, scanned
// in full for the least (when, seq) at every step.
type refQueue struct {
	now     Time
	seq     uint64
	fired   uint64
	pending []*refEvent
}

type refEvent struct {
	when   Time
	seq    uint64
	fn     func()
	daemon bool
}

func (r *refQueue) Now() Time           { return r.now }
func (r *refQueue) EventsFired() uint64 { return r.fired }
func (r *refQueue) Pending() int        { return len(r.pending) }
func (r *refQueue) Step() bool          { return r.step(maxTime) }

func (r *refQueue) Run() {
	for slices.ContainsFunc(r.pending, func(ev *refEvent) bool { return !ev.daemon }) && r.Step() {
	}
}

func (r *refQueue) RunUntil(deadline Time) {
	for r.step(deadline) {
	}
	r.now = max(r.now, deadline)
}

func (r *refQueue) step(deadline Time) bool {
	first := -1
	for i, ev := range r.pending {
		if first < 0 || ev.when < r.pending[first].when ||
			ev.when == r.pending[first].when && ev.seq < r.pending[first].seq {
			first = i
		}
	}
	if first < 0 || r.pending[first].when > deadline {
		return false
	}
	ev := r.pending[first]
	r.pending = slices.Delete(r.pending, first, first+1)
	r.now = ev.when
	r.fired++
	ev.fn()
	return true
}

func (r *refQueue) push(t Time, fn func(), daemon bool) *refEvent {
	ev := &refEvent{when: t, seq: r.seq, fn: fn, daemon: daemon}
	r.seq++
	r.pending = append(r.pending, ev)
	return ev
}

// cancel removes ev if it is still pending; cancelling an event that
// fired or was cancelled is a no-op.
func (r *refQueue) cancel(ev *refEvent) bool {
	i := slices.Index(r.pending, ev)
	if i >= 0 {
		r.pending = slices.Delete(r.pending, i, i+1)
	}
	return i >= 0
}

func (r *refQueue) after(d Duration, fn func()) func() bool { return r.at(r.now+d, fn) }

func (r *refQueue) at(t Time, fn func()) func() bool {
	ev := r.push(t, fn, false)
	return func() bool { return r.cancel(ev) }
}

func (r *refQueue) every(period Duration, fn func()) func() {
	stopped := false
	var ev *refEvent
	var tick func()
	tick = func() {
		fn()
		if !stopped {
			ev = r.push(r.now+period, tick, true)
		}
	}
	ev = r.push(r.now+period, tick, true)
	return func() {
		if !stopped {
			stopped = true
			r.cancel(ev)
		}
	}
}

// orderStep is one line of a played trace.
type orderStep struct {
	what string
	t    Time
	a, b int64
}

func stepAt(s []orderStep, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "end of trace"
}

func firstDiff(a, b []orderStep) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// orderPlayer interprets a byte stream against a queue. Top-level bytes
// pick any operation; each firing event reads one more byte that may make
// it schedule, cancel, start or stop work itself.
type orderPlayer struct {
	q     orderQueue
	data  []byte
	trace []orderStep
	// timers are every scheduled event's cancel func, kept after the
	// event fires: cancelling a fired event is a no-op at every delay.
	timers []func() bool
	stops  []func()
	ticks  int
}

func playOrder(q orderQueue, data []byte) []orderStep {
	p := &orderPlayer{q: q, data: data}
	for len(p.data) > 0 {
		switch op := p.next() % 8; op {
		case 5:
			p.q.RunUntil(p.q.Now() + p.delay())
		case 6:
			p.record("step", 0, b2i(p.q.Step()), 0)
		case 7:
			p.q.Run()
		default:
			p.act(op)
		}
		p.record("state", p.q.Now(), int64(p.q.EventsFired()), int64(p.q.Pending()))
	}
	p.q.Run()
	p.record("state", p.q.Now(), int64(p.q.EventsFired()), int64(p.q.Pending()))
	return p.trace
}

func (p *orderPlayer) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

func (p *orderPlayer) delay() Duration { return orderDelays[int(p.next())%len(orderDelays)] }

func (p *orderPlayer) record(what string, t Time, a, b int64) {
	p.trace = append(p.trace, orderStep{what, t, a, b})
}

// nested lets a firing event act on the queue if its byte says so.
func (p *orderPlayer) nested() {
	if b := p.next(); b%2 == 1 {
		p.act(b / 2 % 5)
	}
}

// act performs one operation that is legal inside a callback.
func (p *orderPlayer) act(op byte) {
	switch op {
	case 0, 1: // After, or At the same instant
		id, d := len(p.timers), p.delay()
		fn := func() {
			p.record("fire", p.q.Now(), int64(id), 0)
			p.nested()
		}
		schedule := p.q.after
		if op == 1 {
			schedule = func(d Duration, fn func()) func() bool { return p.q.at(p.q.Now()+d, fn) }
		}
		p.timers = append(p.timers, schedule(d, fn))
	case 2: // Cancel a retained event, fired or not
		if len(p.timers) == 0 {
			return
		}
		id := int(p.next()) % len(p.timers)
		p.record("cancel", 0, int64(id), b2i(p.timers[id]()))
	case 3: // Every
		id, period := len(p.stops), orderDelays[1+int(p.next())%(len(orderDelays)-1)]
		var stop func()
		stop = p.q.every(period, func() {
			p.record("tick", p.q.Now(), int64(id), 0)
			if p.ticks++; p.ticks > orderMaxTicks {
				stop()
				return
			}
			p.nested()
		})
		p.stops = append(p.stops, stop)
	case 4: // Stop a daemon
		if len(p.stops) > 0 {
			p.stops[int(p.next())%len(p.stops)]()
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
