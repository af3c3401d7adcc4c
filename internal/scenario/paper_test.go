package scenario

import (
	"strings"
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/report"
)

// paperRun runs a registered paper scenario (or a copy a test adjusted,
// as figureCurves does) and fails the test on an error or a failed
// assertion.
func paperRun(t *testing.T, s *Scenario, opts Options) *report.Result {
	t.Helper()
	res, err := s.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("%s: an assertion failed: %+v", s.Name, res.Assertions)
	}
	return res
}

// mustGet looks a registered scenario up.
func mustGet(t *testing.T, name string) *Scenario {
	t.Helper()
	s, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return s
}

func within(got, want, tol float64) bool {
	return got >= want*(1-tol) && got <= want*(1+tol)
}

// TestTable1MatchesPaper checks that measuring pin+unpin through the full
// driver machinery (pinbench: declare, acquire and release on each
// host's rank) recovers the constants of the paper's Table 1 within 15%
// (chunking adds small rounding).
func TestTable1MatchesPaper(t *testing.T) {
	want := map[string]struct {
		base float64 // µs
		per  float64 // ns/page
		gbps float64
	}{
		"Opteron 265":  {4.2, 720, 5.5},
		"Opteron 8347": {2.2, 330, 12},
		"Xeon E5435":   {2.3, 250, 16},
		"Xeon E5460":   {1.3, 150, 26.5},
	}
	res := paperRun(t, mustGet(t, "pinbench"), Options{})
	if len(res.Cases) != 4 {
		t.Fatalf("got %d rows", len(res.Cases))
	}
	for _, c := range res.Cases {
		w, ok := want[c.Label]
		if !ok {
			t.Errorf("unexpected host %q", c.Label)
			continue
		}
		base, per, gbps := c.Metrics["base_us"], c.Metrics["ns_per_page"], c.Metrics["gbps"]
		if !within(base, w.base, 0.15) {
			t.Errorf("%s base = %.2f us, paper %.1f", c.Label, base, w.base)
		}
		if !within(per, w.per, 0.15) {
			t.Errorf("%s per-page = %.0f ns, paper %.0f", c.Label, per, w.per)
		}
		if !within(gbps, w.gbps, 0.20) {
			t.Errorf("%s throughput = %.1f GB/s, paper %.1f", c.Label, gbps, w.gbps)
		}
	}
}

// TestOverlapMissRates checks §4.3 on the full overlapmiss run: under
// normal load misses are rarer than 1 in 10^4 packets; on an overloaded
// core the throughput collapses by more than an order of magnitude and
// misses become common.
func TestOverlapMissRates(t *testing.T) {
	var normal, over map[string]float64
	for _, c := range paperRun(t, mustGet(t, "overlapmiss"), Options{}).Cases {
		switch {
		case strings.HasPrefix(c.Label, "normal"):
			normal = c.Metrics
		case strings.HasPrefix(c.Label, "overloaded"):
			over = c.Metrics
		}
	}
	if normal == nil || over == nil {
		t.Fatal("overlapmiss is missing its normal or overloaded cell")
	}
	if normal["miss_rate"] > 1e-4 {
		t.Errorf("normal-load miss rate = %.2e, paper says < 1e-4", normal["miss_rate"])
	}
	if normal["mbps"] < 800 {
		t.Errorf("normal-load throughput = %.0f MiB/s, want ~1 GB/s", normal["mbps"])
	}
	if over["misses"] == 0 {
		t.Error("overloaded core produced no overlap misses")
	}
	if over["mbps"] <= 0 {
		t.Error("overload throughput measured as zero; budget mode broken")
	}
	if over["mbps"] > normal["mbps"]/10 {
		t.Errorf("overload throughput %.0f vs normal %.0f: collapse factor only %.1fx, paper shows ~20x",
			over["mbps"], normal["mbps"], normal["mbps"]/over["mbps"])
	}
	if over["rereqs"] == 0 {
		t.Error("no re-requests despite overlap misses")
	}
}

// TestNPBISRowShape checks the NPB IS row of Table 2 (class A, the
// -quick class): the sort verifies under every configuration and both
// optimizations help a large-message-intensive code, cache >= overlap.
func TestNPBISRowShape(t *testing.T) {
	res := paperRun(t, mustGet(t, "npbis"), Options{Quick: true, Policy: "NPB is"})
	var row map[string]float64
	for _, c := range res.Cases {
		if c.Metrics["verified"] != 1 {
			t.Fatalf("IS verification failed under %s", c.Policy)
		}
		if c.Policy == table2Base {
			row = c.Metrics
		}
	}
	if len(res.Cases) != 3 || row == nil {
		t.Fatalf("want the IS row's three cells, got %d", len(res.Cases))
	}
	cache, overlap := row["cache_pct"], row["overlap_pct"]
	if cache < 0.5 || cache > 15 {
		t.Errorf("cache improvement = %.1f%%, paper 4.2%%", cache)
	}
	if overlap < -1 || overlap > 10 {
		t.Errorf("overlap improvement = %.1f%%, paper 1.9%%", overlap)
	}
	if cache < overlap-1 {
		t.Errorf("cache (%.1f%%) should be at least as good as overlap (%.1f%%) for IS", cache, overlap)
	}
}

// TestHostFrequencySensitivity checks the paper's headline range on
// figure7's 4 MiB PingPong: the pinning-cache gain over regular pinning
// grows from ~5% on the fastest host to the high teens on the slowest
// (abstract: "from 5 to 20% depending on the host frequency").
func TestHostFrequencySensitivity(t *testing.T) {
	gain := func(spec cpu.Spec) float64 {
		s := *mustGet(t, "figure7")
		s.Sizes, s.QuickSizes, s.Cluster.Spec = []int{4 << 20}, nil, spec
		mbps := make(map[string]float64)
		for _, c := range paperRun(t, &s, Options{}).Cases {
			mbps[c.Label] = c.Metrics["mbps"]
		}
		base, cached := mbps["regular/4MB"], mbps["cache/4MB"]
		return (cached - base) / base * 100
	}
	fast := gain(cpu.XeonE5460)
	slow := gain(cpu.Opteron265)
	if fast < 3 || fast > 10 {
		t.Errorf("E5460 cache gain = %.1f%%, paper ~5%%", fast)
	}
	if slow < 12 || slow > 25 {
		t.Errorf("Opteron 265 cache gain = %.1f%%, paper up to ~20%%", slow)
	}
	if slow <= fast {
		t.Errorf("gain did not grow on the slower host (%.1f%% vs %.1f%%)", slow, fast)
	}
}
