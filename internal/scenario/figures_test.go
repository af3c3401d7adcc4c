package scenario

import (
	"testing"

	"omxsim/internal/report"
)

// figureSizes are the sweep points the figure shape tests check.
var figureSizes = []int{256 * 1024, 1 << 20, 4 << 20, 16 << 20}

// figureCurves runs a registered figure scenario at figureSizes and
// returns each case's PingPong throughput per size, in figureSizes order.
func figureCurves(t *testing.T, name string) map[string][]float64 {
	t.Helper()
	reg, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	s := *reg
	s.Sizes, s.QuickSizes = figureSizes, nil
	res, err := s.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("%s: an assertion failed", name)
	}
	curves := make(map[string][]float64)
	for _, c := range s.Cases {
		for _, size := range figureSizes {
			var mbps float64
			for _, rc := range res.Cases {
				if rc.Label == c.Label+"/"+report.Bytes(size) {
					mbps = rc.Metrics["mbps"]
				}
			}
			if mbps <= 0 {
				t.Fatalf("%s: no throughput for %s at %s", name, c.Label, report.Bytes(size))
			}
			curves[c.Label] = append(curves[c.Label], mbps)
		}
	}
	return curves
}

// TestFigure6Shape checks the paper's Figure 6 claims: permanent pinning
// beats pin-per-communication by roughly 5% on the E5460, at every size;
// I/OAT lifts both curves; curves increase with message size.
func TestFigure6Shape(t *testing.T) {
	curves := figureCurves(t, "figure6")
	pin, perm := curves["pin-per-comm"], curves["permanent"]
	pinIOAT, permIOAT := curves["pin-per-comm+ioat"], curves["permanent+ioat"]
	for i, size := range figureSizes {
		gap := (perm[i] - pin[i]) / perm[i] * 100
		if gap < 2 || gap > 12 {
			t.Errorf("size %d: permanent-vs-pin gap = %.1f%%, paper ~5%%", size, gap)
		}
		if permIOAT[i] <= perm[i] {
			t.Errorf("size %d: I/OAT did not improve permanent pinning", size)
		}
		if pinIOAT[i] <= pin[i] {
			t.Errorf("size %d: I/OAT did not improve pin-per-comm", size)
		}
	}
	// Monotone-ish growth with size.
	if perm[len(figureSizes)-1] < perm[0] {
		t.Error("throughput decreased with message size")
	}
	// Peak in the right regime (paper: ~1100-1200 MiB/s with I/OAT).
	if peak := permIOAT[len(figureSizes)-1]; peak < 900 || peak > 1300 {
		t.Errorf("I/OAT peak = %.0f MiB/s, expected ~1150", peak)
	}
}

// TestFigure7Shape checks the paper's Figure 7 claims: both the pinning
// cache and overlapped pinning recover (most of) the gap to permanent
// pinning, individually and combined.
func TestFigure7Shape(t *testing.T) {
	curves := figureCurves(t, "figure7")
	regular, overlapped, cache := curves["regular"], curves["overlapped"], curves["cache"]
	for i, size := range figureSizes {
		for _, opt := range []string{"overlapped", "cache", "overlapped-cache"} {
			gain := (curves[opt][i] - regular[i]) / regular[i] * 100
			if gain < 1 {
				t.Errorf("size %d: %s gains only %.1f%% over regular", size, opt, gain)
			}
			if gain > 15 {
				t.Errorf("size %d: %s gains %.1f%%, implausibly large", size, opt, gain)
			}
		}
		// Cache and overlap end up within a few percent of each other
		// (paper: "the same performance improvement is brought by
		// overlapped memory pinning").
		if diff := (cache[i] - overlapped[i]) / cache[i] * 100; diff > 5 || diff < -5 {
			t.Errorf("size %d: cache vs overlap differ by %.1f%%", size, diff)
		}
	}
}
