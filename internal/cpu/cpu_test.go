package cpu

import (
	"testing"

	"omxsim/internal/sim"
)

func TestCoreExecutesSerially(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMachine(e, XeonE5460)
	c := m.Core(0)
	var finish []sim.Time
	c.Submit(User, 100, func() { finish = append(finish, e.Now()) })
	c.Submit(User, 50, func() { finish = append(finish, e.Now()) })
	e.Run()
	if len(finish) != 2 || finish[0] != 100 || finish[1] != 150 {
		t.Fatalf("finish = %v, want [100 150]", finish)
	}
}

func TestPriorityOrdering(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewMachine(e, XeonE5460).Core(0)
	var order []Priority
	// Occupy the core so submissions below all queue.
	c.Submit(User, 10, nil)
	c.Submit(User, 10, func() { order = append(order, User) })
	c.Submit(Kernel, 10, func() { order = append(order, Kernel) })
	c.Submit(BottomHalf, 10, func() { order = append(order, BottomHalf) })
	e.Run()
	want := []Priority{BottomHalf, Kernel, User}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNoPreemptionOfRunningItem(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewMachine(e, XeonE5460).Core(0)
	var bhDone, userDone sim.Time
	c.Submit(User, 100, func() { userDone = e.Now() })
	e.After(10, func() {
		c.Submit(BottomHalf, 5, func() { bhDone = e.Now() })
	})
	e.Run()
	if userDone != 100 {
		t.Fatalf("running user item finished at %v, want 100 (no preemption)", userDone)
	}
	if bhDone != 105 {
		t.Fatalf("bottom half finished at %v, want 105", bhDone)
	}
}

func TestBottomHalfStarvesKernelWork(t *testing.T) {
	// The §4.3 scenario: a flood of BH work delays kernel pinning work.
	e := sim.NewEngine(1)
	c := NewMachine(e, XeonE5460).Core(0)
	var pinDone sim.Time
	for i := 0; i < 100; i++ {
		c.Submit(BottomHalf, 10, nil)
	}
	c.Submit(Kernel, 10, func() { pinDone = e.Now() })
	e.Run()
	if pinDone != 1010 {
		t.Fatalf("kernel work done at %v, want 1010 (after all BH work)", pinDone)
	}
}

func TestExecBlocksProc(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewMachine(e, XeonE5460).Core(0)
	var after sim.Time
	e.Go("app", func(p *sim.Proc) {
		c.Exec(p, User, 250)
		after = p.Now()
	})
	e.Run()
	if after != 250 {
		t.Fatalf("Exec returned at %v, want 250", after)
	}
}

func TestAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewMachine(e, XeonE5460).Core(0)
	c.Submit(User, 100, nil)
	c.Submit(BottomHalf, 50, nil)
	e.Run()
	if c.BusyTime(User) != 100 || c.BusyTime(BottomHalf) != 50 {
		t.Fatalf("busy times = %v/%v", c.BusyTime(User), c.BusyTime(BottomHalf))
	}
	if c.Completed(User) != 1 || c.Completed(BottomHalf) != 1 {
		t.Fatal("completion counters wrong")
	}
	if u := c.Utilization(); u != 1.0 {
		t.Fatalf("Utilization = %v, want 1.0", u)
	}
}

func TestPinCostsMatchTable1(t *testing.T) {
	// Table 1: combined base + per-page costs; pin+unpin must sum exactly.
	for _, spec := range Table1Hosts() {
		for _, pages := range []int{0, 1, 16, 256, 4096} {
			got := spec.PinCost(pages) + spec.UnpinCost(pages)
			want := spec.PinUnpinCost(pages)
			// Allow 1ns rounding from the share split.
			if d := got - want; d < -1 || d > 1 {
				t.Errorf("%s %d pages: pin+unpin = %v, combined = %v", spec.Name, pages, got, want)
			}
		}
	}
}

func TestPinThroughputMatchesTable1(t *testing.T) {
	// Table 1's GB/s column is pagesize / per-page cost. Verify our presets
	// land within 10% of the published column.
	want := map[string]float64{
		"Opteron 265":  5.5,
		"Opteron 8347": 12,
		"Xeon E5435":   16,
		"Xeon E5460":   26.5,
	}
	for _, spec := range Table1Hosts() {
		gbps := 4096.0 / float64(spec.PinPerPage) // bytes/ns == GB/s
		w := want[spec.Name]
		if gbps < w*0.9 || gbps > w*1.15 {
			t.Errorf("%s: pinning throughput %.1f GB/s, paper says %.1f", spec.Name, gbps, w)
		}
	}
}

func TestCopyCost(t *testing.T) {
	spec := XeonE5460
	if d := spec.CopyCost(0); d != 0 {
		t.Fatalf("CopyCost(0) = %v", d)
	}
	// 1.15 GB/s -> 1 MiB in ~911us
	d := spec.CopyCost(1 << 20)
	if d < 880_000 || d > 940_000 {
		t.Fatalf("CopyCost(1MiB) = %v, want ~911us", d)
	}
}

func TestSubmitNegativePanics(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewMachine(e, XeonE5460).Core(0)
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	c.Submit(User, -1, nil)
}

func TestMachineCores(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMachine(e, XeonE5460)
	if m.NumCores() != 8 {
		t.Fatalf("NumCores = %d, want 8", m.NumCores())
	}
	for i := 0; i < m.NumCores(); i++ {
		if m.Core(i).ID() != i {
			t.Fatalf("core %d has ID %d", i, m.Core(i).ID())
		}
	}
}

func TestPriorityString(t *testing.T) {
	if BottomHalf.String() != "bottomhalf" || Kernel.String() != "kernel" || User.String() != "user" {
		t.Fatal("priority names wrong")
	}
	if Priority(9).String() != "priority(9)" {
		t.Fatal("unknown priority name wrong")
	}
}

func TestZeroDurationWork(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewMachine(e, XeonE5460).Core(0)
	ran := false
	c.Submit(User, 0, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("zero-duration work never ran")
	}
}

func TestChainedSubmitFromCompletion(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewMachine(e, XeonE5460).Core(0)
	var times []sim.Time
	c.Submit(User, 10, func() {
		times = append(times, e.Now())
		c.Submit(User, 20, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 30 {
		t.Fatalf("times = %v, want [10 30]", times)
	}
}

// TestAllocsSubmit: work queued on an idle core, and finishing it, does
// not allocate; nor does a 1,000-item burst once a burst of that size has
// grown the ring, since the ring keeps its array while the core is busy.
func TestAllocsSubmit(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewMachine(e, XeonE5460).Core(0)
	fn, argFn := func() {}, func(any) {}
	c.Submit(Kernel, 10, fn)
	e.Run()
	if n := testing.AllocsPerRun(200, func() {
		c.Submit(Kernel, 10, fn)
		e.Run()
	}); n != 0 {
		t.Fatalf("Submit on an idle core allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.SubmitArg(Kernel, 10, argFn, c)
		e.Run()
	}); n != 0 {
		t.Fatalf("SubmitArg on an idle core allocates %.1f/op, want 0", n)
	}

	// Each burst queues behind the last item of the one before, which is
	// still running, so the core never idles between bursts.
	burst := func() {
		for range 1000 {
			c.SubmitArg(BottomHalf, 1, argFn, nil)
		}
		e.RunUntil(e.Now() + 1000)
	}
	c.SubmitArg(BottomHalf, 1, argFn, nil)
	burst()
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Fatalf("a 1,000-item burst allocates %.1f/op, want 0", n)
	}
	e.Run()
	if got := c.Completed(BottomHalf); got != 1+22*1000 {
		t.Fatalf("Completed(BottomHalf) = %d, want 22001", got)
	}
}
