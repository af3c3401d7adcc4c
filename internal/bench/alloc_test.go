package bench

import (
	"runtime"
	"testing"
)

// simWallClockAllocs and simWallClockBytes are what one SimWallClockCell
// run allocates once the pull path recycles its wire frames, pull
// requests and replies and binds its bottom halves once. The count was
// 109,428 before the event core stopped allocating per event, 60,586
// objects of 5,624,000 bytes before the pin table stopped copying
// references, and 60,285 objects of 4,665,800 bytes before the pull path
// stopped allocating per fragment and per window.
const (
	simWallClockAllocs = 7_525
	simWallClockBytes  = 1_151_800
)

// TestSimWallClockAllocBudget holds the acceptance-gate cell within 5% of
// simWallClockAllocs objects and simWallClockBytes bytes a run. Unlike its
// ns/op, neither depends on the host. The race detector allocates more,
// so the race build skips it.
func TestSimWallClockAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	n := testing.AllocsPerRun(1, func() { SimWallClockCell() })
	if budget := 1.05 * simWallClockAllocs; n > budget {
		t.Fatalf("SimWallClockCell allocates %.0f/run, over its budget of %.0f (1.05 x %d)",
			n, budget, simWallClockAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	SimWallClockCell()
	runtime.ReadMemStats(&after)
	if b, budget := after.TotalAlloc-before.TotalAlloc, 1.05*simWallClockBytes; float64(b) > budget {
		t.Fatalf("SimWallClockCell allocates %d bytes/run, over its budget of %.0f (1.05 x %d)",
			b, budget, simWallClockBytes)
	}
}
