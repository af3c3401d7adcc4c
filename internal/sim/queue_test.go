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
	var live []*Event
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
		// Cancel a random remembered event (it may have fired already, in
		// which case Cancel must be a no-op). Zero-delay events are excluded:
		// they are pooled and must not be cancelled after their instant.
		if len(live) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(live))
			if live[i].When() > e.Now() {
				live[i].Cancel()
			}
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

// Allocation regressions: the zero-delay hot paths must not allocate. The
// warmup pass grows the heap, the event pool, and waiter slices to steady
// state before measuring.

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

func TestAllocsSemaphoreRelease(t *testing.T) {
	e := NewEngine(1)
	s := NewSemaphore(0)
	if n := testing.AllocsPerRun(200, func() {
		s.Release(e)
		s.TryAcquire()
		e.Run()
	}); n != 0 {
		t.Fatalf("Semaphore.Release allocates %.1f/op, want 0", n)
	}
}
