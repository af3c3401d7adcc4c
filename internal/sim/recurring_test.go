package sim

import "testing"

// TestRecurringFiresWhileForegroundWorkExists: a recurring daemon ticks in
// timestamp order alongside foreground events, and Run stops as soon as the
// foreground queue drains — the daemon alone cannot keep the engine alive.
func TestRecurringFiresWhileForegroundWorkExists(t *testing.T) {
	eng := NewEngine(1)
	var ticks []Time
	r := eng.Every(100, func() { ticks = append(ticks, eng.Now()) })
	fired := false
	eng.After(350, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("foreground event did not fire")
	}
	// Ticks at 100, 200, 300 precede the foreground event at 350. The tick
	// armed for 400 must not have fired: only daemon work remained.
	want := []Time{100, 200, 300}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	if eng.Now() != 350 {
		t.Fatalf("clock stopped at %v, want 350", eng.Now())
	}
	if r.Runs() != 3 {
		t.Fatalf("Runs() = %d, want 3", r.Runs())
	}
}

// TestRecurringForegroundWorkFromTick: foreground events scheduled by a
// daemon tick extend the run until they complete (kswapd submitting kernel
// work must see that work execute).
func TestRecurringForegroundWorkFromTick(t *testing.T) {
	eng := NewEngine(1)
	var done []Time
	eng.Every(100, func() {
		if eng.Now() == 100 {
			// Scheduled while the foreground event at 150 is still pending;
			// it lands at 300, past every other foreground event, and must
			// still execute before Run returns.
			eng.After(200, func() { done = append(done, eng.Now()) })
		}
	})
	eng.After(150, func() {})
	eng.Run()
	if len(done) != 1 || done[0] != 300 {
		t.Fatalf("daemon-scheduled foreground work = %v, want [300]", done)
	}
}

// TestRecurringStop: after Stop the callback never fires again, and the
// cancelled daemon event does not wedge the pending accounting.
func TestRecurringStop(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	var r *Recurring
	r = eng.Every(10, func() {
		count++
		if count == 2 {
			r.Stop()
		}
	})
	eng.After(100, func() {})
	eng.Run()
	if count != 2 {
		t.Fatalf("ticks after Stop: count = %d, want 2", count)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after drain", eng.Pending())
	}
}

// TestRunUntilFiresDaemonsThroughWindow: unlike Run, RunUntil keeps
// firing daemon ticks through the whole bounded window even with no
// foreground work — kswapd must reclaim during idle windows; the
// deadline already guarantees termination.
func TestRunUntilFiresDaemonsThroughWindow(t *testing.T) {
	eng := NewEngine(1)
	ticks := 0
	eng.Every(10, func() { ticks++ })
	eng.After(25, func() {})
	eng.RunUntil(100)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10 (every 10ns through the window)", ticks)
	}
	if eng.Now() != 100 {
		t.Fatalf("clock = %v, want deadline 100", eng.Now())
	}
	// A later Run sees the tick armed for 110 but no foreground work:
	// it must return without panicking on a past event and without
	// spinning the daemon.
	eng.Run()
	if ticks != 10 {
		t.Fatalf("Run fired daemon-only ticks: %d", ticks)
	}
}
