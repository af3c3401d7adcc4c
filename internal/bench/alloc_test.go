package bench

import "testing"

// simWallClockAllocs is what one SimWallClockCell run allocated once the
// event core stopped allocating per event, pooling events and binding
// bottom halves and core work items once (it was 109,428 before).
const simWallClockAllocs = 60_574

// TestSimWallClockAllocBudget holds the acceptance-gate cell within 5% of
// simWallClockAllocs. Unlike its ns/op, the count does not depend on the
// host. The race detector allocates more, so the race build skips it.
func TestSimWallClockAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	n := testing.AllocsPerRun(1, func() { SimWallClockCell() })
	if budget := 1.05 * simWallClockAllocs; n > budget {
		t.Fatalf("SimWallClockCell allocates %.0f/run, over its budget of %.0f (1.05 x %d)",
			n, budget, simWallClockAllocs)
	}
}
