package sim

import (
	"math/rand"
	"testing"
)

// buildWorkload drives an engine through a randomized schedule of delays
// from zero to beyond 2^32 ns, cancellations and nested scheduling,
// recording the (time, id) trace of fired events.
func buildWorkload(e *Engine, seed int64) ([]Time, []int, uint64) {
	rng := rand.New(rand.NewSource(seed))
	var times []Time
	var ids []int
	var live []Event
	id := 0
	deltas := []Duration{0, 1, 100, 255, 256, 257, 5000, 65_535, 65_536, 1 << 20,
		(1 << 24) - 1, 1 << 24, 200_000_000, (1 << 32) + 12345, 6_000_000_000}
	var schedule func(depth int)
	schedule = func(depth int) {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			d := deltas[rng.Intn(len(deltas))]
			myID := id
			id++
			ev := e.After(d, func() {
				times = append(times, e.Now())
				ids = append(ids, myID)
				if depth < 3 && rng.Intn(3) == 0 {
					schedule(depth + 1)
				}
			})
			if rng.Intn(6) == 0 {
				live = append(live, ev)
			}
		}
		// Cancel a random remembered event. It may have fired already, and
		// its object may since carry another event; Cancel must then be a
		// no-op.
		if len(live) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(live))
			live[i].Cancel()
			live = append(live[:i], live[i+1:]...)
		}
	}
	for i := 0; i < 40; i++ {
		schedule(0)
	}
	// Mix RunUntil slices with full Run to cover the clock-bump path.
	e.RunUntil(1_000_000)
	e.RunUntil(300_000_000)
	e.Run()
	return times, ids, e.EventsFired()
}

// TestGoldenTraceDeterminism asserts run-to-run reproducibility of the
// engine itself.
func TestGoldenTraceDeterminism(t *testing.T) {
	t1, i1, f1 := buildWorkload(NewEngine(7), 7)
	t2, i2, f2 := buildWorkload(NewEngine(7), 7)
	if f1 != f2 || len(t1) != len(t2) {
		t.Fatalf("runs differ: %d/%d events", f1, f2)
	}
	for i := range t1 {
		if t1[i] != t2[i] || i1[i] != i2[i] {
			t.Fatalf("trace diverges at %d", i)
		}
	}
}

// TestCancelFastPathEvent asserts Event.Cancel works on a pooled
// zero-delay event: the event must not fire, must not advance the clock,
// and must update Pending.
func TestCancelFastPathEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(0, func() { fired = true })
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if !ev.Cancel() {
		t.Fatal("Cancel returned false for pending fast-path event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("cancelled fast-path event fired")
	}
	if e.EventsFired() != 0 {
		t.Fatalf("EventsFired = %d, want 0", e.EventsFired())
	}
}

// TestStaleHandleCancelIsNoop keeps handles past their events, lets the
// pool hand their objects to new events (it is LIFO), and cancels the
// stale handles: each Cancel must report false and leave the new event to
// fire, at zero delay as at a timed one.
func TestStaleHandleCancelIsNoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		delay  Duration
		cancel bool // end the first event by Cancel rather than by firing
	}{
		{"zero delay, fired", 0, false},
		{"timed, fired", 100, false},
		{"timed, cancelled", 100, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			stale := e.After(c.delay, func() {})
			wantFired := uint64(1)
			if c.cancel {
				stale.Cancel()
				wantFired = 0
			} else {
				e.Run()
			}
			fired := false
			next := e.After(c.delay, func() { fired = true })
			if next.ev != stale.ev {
				t.Fatal("the new event did not reuse the stale handle's object")
			}
			if stale.Pending() || stale.Cancel() {
				t.Fatal("a stale handle reads as pending or cancels")
			}
			if !next.Pending() || e.Pending() != 1 {
				t.Fatalf("new event pending = %v, engine Pending = %d, want true and 1",
					next.Pending(), e.Pending())
			}
			e.Run()
			if !fired || e.EventsFired() != wantFired+1 || e.Pending() != 0 {
				t.Fatalf("fired = %v, EventsFired = %d, Pending = %d, want true, %d, 0",
					fired, e.EventsFired(), e.Pending(), wantFired+1)
			}
		})
	}
	t.Run("recurring stops in its own callback", func(t *testing.T) {
		e := NewEngine(1)
		fired := false
		var r *Recurring
		r = e.Every(10, func() {
			e.After(5, func() { fired = true }) // takes the tick's object
			r.Stop()
		})
		e.After(100, func() {})
		e.Run()
		if !fired || r.Runs() != 1 || e.EventsFired() != 3 || e.Pending() != 0 {
			t.Fatalf("fired = %v, Runs = %d, EventsFired = %d, Pending = %d, want true, 1, 3, 0",
				fired, r.Runs(), e.EventsFired(), e.Pending())
		}
	})
}

// TestPendingCounterAcrossDelays asserts Pending stays exact across
// scheduling, firing, and cancelling events from zero delay to six
// seconds out.
func TestPendingCounterAcrossDelays(t *testing.T) {
	e := NewEngine(1)
	e.After(0, func() {})
	evNear := e.After(5000, func() {})
	evMid := e.After(200_000_000, func() {})
	evFar := e.After(6_000_000_000, func() {})
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	evNear.Cancel()
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after cancel, want 3", e.Pending())
	}
	e.Step() // fires the zero-delay event
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after step, want 2", e.Pending())
	}
	evMid.Cancel()
	evFar.Cancel()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancels, want 0", e.Pending())
	}
	e.Run()
	if e.EventsFired() != 1 {
		t.Fatalf("EventsFired = %d, want 1", e.EventsFired())
	}
}

// TestFarFutureEventsInterleave covers events more than 2^32 ns (~4.3 s)
// out: they must interleave correctly with near ones.
func TestFarFutureEventsInterleave(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.After(6_000_000_000, rec)
	e.After(5_000_000_000, rec)
	e.After(100, rec)
	e.After(4_999_999_999, rec)
	e.Run()
	want := []Time{100, 4_999_999_999, 5_000_000_000, 6_000_000_000}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestRunUntilDeadlineAfterCancelledEvent: with a cancelled event before
// the deadline and a live one after it, RunUntil must fire nothing and
// stop the clock at the deadline.
func TestRunUntilDeadlineAfterCancelledEvent(t *testing.T) {
	e := NewEngine(1)
	ev := e.After(15_000, func() { t.Error("cancelled event fired") })
	fired := false
	e.After(25_000, func() { fired = true })
	ev.Cancel()
	e.RunUntil(20_000)
	if fired {
		t.Fatal("RunUntil fired an event past its deadline")
	}
	if e.Now() != 20_000 {
		t.Fatalf("Now = %v, want 20000", e.Now())
	}
	e.Run()
	if !fired {
		t.Fatal("live event never fired")
	}
	if e.Now() != 25_000 {
		t.Fatalf("Now = %v, want 25000", e.Now())
	}
}

// TestCancelledTimersLeaveHeap arms and cancels 10,000 retransmit-style
// 20 ms timers while the clock steps 100 ns at a time. Each cancelled
// timer must leave the heap at once, so it never holds more than the
// live timer and the next step.
func TestCancelledTimersLeaveHeap(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 10_000; i++ {
		timer := e.After(20*Millisecond, fn)
		e.After(100, fn)
		if n := len(e.queue); n > 2 {
			t.Fatalf("step %d: heap holds %d events, want at most 2", i, n)
		}
		timer.Cancel()
		e.Step()
	}
	if n := len(e.queue); n != 0 {
		t.Fatalf("heap holds %d events after the last step, want 0", n)
	}
	if e.Now() != 10_000*100 {
		t.Fatalf("Now = %v, want 1ms", e.Now())
	}
}

// Allocation regressions: scheduling, firing, cancelling and the process
// wake paths must not allocate. The warmup pass grows the heap, the event
// pool, and waiter slices to steady state before measuring.

func TestAllocsAfterZero(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 100; i++ { // warm pool and heap
		e.After(0, fn)
		e.Step()
	}
	if n := testing.AllocsPerRun(200, func() {
		e.After(0, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("After(0)+Step allocates %.1f/op, want 0", n)
	}
}

func TestAllocsQueuePush(t *testing.T) {
	e := NewEngine(1)
	q := &Queue[int]{}
	for i := 0; i < 100; i++ { // warm item slice
		q.Push(e, i)
	}
	for i := 0; i < 100; i++ {
		q.TryPop()
	}
	if n := testing.AllocsPerRun(200, func() {
		q.Push(e, 1)
		q.TryPop()
		e.Run()
	}); n != 0 {
		t.Fatalf("Queue.Push allocates %.1f/op, want 0", n)
	}
}

func TestAllocsCompletionComplete(t *testing.T) {
	e := NewEngine(1)
	// Pre-create completions with a registered waiter outside the measured
	// region; measure only Complete (waiter wake goes through the pooled
	// fast path).
	const runs = 200
	// AllocsPerRun invokes the closure extra times around the measured
	// window; over-provision so every call gets a fresh completion.
	cs := make([]*Completion, 2*runs+20)
	fn := func() {}
	for i := range cs {
		cs[i] = &Completion{}
		cs[i].OnDone(e, fn)
	}
	// Warm the pool.
	for i := 0; i < 5; i++ {
		cs[2*runs+i].Complete(e, nil)
		e.Run()
	}
	idx := 0
	if n := testing.AllocsPerRun(runs, func() {
		cs[idx].Complete(e, nil)
		idx++
		e.Run()
	}); n != 0 {
		t.Fatalf("Completion.Complete allocates %.1f/op, want 0", n)
	}
}

func TestAllocsTimedFireAndCancel(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	e.After(100, fn)
	e.Step()
	if n := testing.AllocsPerRun(200, func() {
		e.After(100, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("After(100)+Step allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		e.After(20*Millisecond, fn).Cancel()
	}); n != 0 {
		t.Fatalf("After(20ms)+Cancel allocates %.1f/op, want 0", n)
	}
}

// TestAllocsProcWakes measures one wake of a parked process per run: from
// Sleep, from Completion.Wait by Complete, from Queue.Pop by Push, and a
// Recurring tick.
func TestAllocsProcWakes(t *testing.T) {
	const runs = 200
	e := NewEngine(1)
	stop := false
	e.Go("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(10)
		}
	})
	e.RunUntil(10)
	if n := testing.AllocsPerRun(runs, func() { e.RunUntil(e.Now() + 10) }); n != 0 {
		t.Fatalf("Proc.Sleep allocates %.1f/op, want 0", n)
	}
	stop = true
	e.Run()

	// AllocsPerRun calls its function once more than runs.
	cs := make([]Completion, runs+2)
	e.Go("waiter", func(p *Proc) {
		for i := range cs {
			cs[i].Wait(p)
		}
	})
	e.Run()
	next := 0
	complete := func() {
		cs[next].Complete(e, nil)
		next++
		e.Run()
	}
	complete()
	if n := testing.AllocsPerRun(runs, complete); n != 0 {
		t.Fatalf("Completion.Wait+Complete allocates %.1f/op, want 0", n)
	}

	q := &Queue[int]{}
	e.Go("popper", func(p *Proc) {
		for q.Pop(p) >= 0 {
		}
	})
	e.Run()
	push := func() {
		q.Push(e, 1)
		e.Run()
	}
	push()
	if n := testing.AllocsPerRun(runs, push); n != 0 {
		t.Fatalf("Queue.Push waking Pop allocates %.1f/op, want 0", n)
	}
	q.Push(e, -1)
	e.Run()

	r := e.Every(10, func() {})
	e.RunUntil(e.Now() + 10)
	if n := testing.AllocsPerRun(runs, func() { e.RunUntil(e.Now() + 10) }); n != 0 {
		t.Fatalf("a Recurring tick allocates %.1f/op, want 0", n)
	}
	r.Stop()
}
