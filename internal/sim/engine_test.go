package sim

import (
	"errors"
	"testing"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.After(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d fired as %d; same-timestamp events must be FIFO", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.After(10, func() {
		trace = append(trace, e.Now())
		e.After(5, func() { trace = append(trace, e.Now()) })
		e.After(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 3 || trace[0] != 10 || trace[1] != 10 || trace[2] != 15 {
		t.Fatalf("trace = %v, want [10 10 15]", trace)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(10, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Now() != 0 {
		// cancelled events must not advance the clock
		t.Fatalf("Now = %v after cancelled-only run, want 0", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Duration{5, 10, 15, 20} {
		d := d
		e.After(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired = %v, want [5 10]", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run fired = %v, want all 4", fired)
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine(1)
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineDeterminism(t *testing.T) {
	run := func() ([]Time, uint64) {
		e := NewEngine(42)
		var trace []Time
		e.stepHook = func(tm Time) { trace = append(trace, tm) }
		for i := 0; i < 50; i++ {
			d := Duration(e.Rand().Intn(1000))
			e.After(d, func() {
				if e.Rand().Intn(2) == 0 {
					e.After(Duration(e.Rand().Intn(100)), func() {})
				}
			})
		}
		e.Run()
		return trace, e.EventsFired()
	}
	t1, n1 := run()
	t2, n2 := run()
	if n1 != n2 || len(t1) != len(t2) {
		t.Fatalf("runs differ: %d/%d events", n1, n2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = p.Now()
	})
	e.Run()
	if wake != 100 {
		t.Fatalf("woke at %v, want 100", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestCompletionWaitBeforeAndAfter(t *testing.T) {
	e := NewEngine(1)
	c := &Completion{}
	errBoom := errors.New("boom")
	var early, late error
	earlySet := false
	e.Go("early", func(p *Proc) {
		early = c.Wait(p) // parks: not yet complete
		earlySet = true
	})
	e.After(50, func() { c.Complete(e, errBoom) })
	e.Go("late", func(p *Proc) {
		p.Sleep(100)
		late = c.Wait(p) // already complete: returns immediately
	})
	e.Run()
	if !earlySet || early != errBoom || late != errBoom {
		t.Fatalf("early=%v late=%v, want both %v", early, late, errBoom)
	}
	if !c.Done() || c.Err() != errBoom {
		t.Fatal("completion state wrong")
	}
}

func TestCompletionDoubleCompletePanics(t *testing.T) {
	e := NewEngine(1)
	c := &Completion{}
	c.Complete(e, nil)
	defer func() {
		if recover() == nil {
			t.Error("double Complete did not panic")
		}
	}()
	c.Complete(e, nil)
}

func TestWaitAllReturnsFirstError(t *testing.T) {
	e := NewEngine(1)
	a, b, c := &Completion{}, &Completion{}, &Completion{}
	errB := errors.New("b failed")
	var got error
	e.Go("w", func(p *Proc) { got = WaitAll(p, a, b, c) })
	e.After(10, func() { c.Complete(e, nil) })
	e.After(20, func() { a.Complete(e, nil) })
	e.After(30, func() { b.Complete(e, errB) })
	e.Run()
	if got != errB {
		t.Fatalf("WaitAll = %v, want %v", got, errB)
	}
}

func TestQueueBlockingPop(t *testing.T) {
	e := NewEngine(1)
	q := &Queue[int]{}
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.After(10, func() { q.Push(e, 1) })
	e.After(20, func() { q.Push(e, 2); q.Push(e, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine(1)
	q := &Queue[string]{}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
	q.Push(e, "x")
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q,%v", v, ok)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{12_500, "12.500us"},
		{3_200_000, "3.200ms"},
		{12_000_000_000, "12.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine(1)
	a := e.After(10, func() {})
	e.After(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	a.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after cancel, want 1", e.Pending())
	}
}
