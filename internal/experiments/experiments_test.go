package experiments

import (
	"testing"

	"omxsim/internal/cluster"
	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/imb"
	"omxsim/internal/mpi"
	"omxsim/internal/npb"
	"omxsim/internal/omx"
)

// TestTable1MatchesPaper checks that measuring pin+unpin through the full
// driver machinery recovers the constants of the paper's Table 1 within 15%
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
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Host]
		if !ok {
			t.Errorf("unexpected host %q", r.Host)
			continue
		}
		if !within(r.BaseMicros, w.base, 0.15) {
			t.Errorf("%s base = %.2f us, paper %.1f", r.Host, r.BaseMicros, w.base)
		}
		if !within(r.NsPerPage, w.per, 0.15) {
			t.Errorf("%s per-page = %.0f ns, paper %.0f", r.Host, r.NsPerPage, w.per)
		}
		if !within(r.GBps, w.gbps, 0.20) {
			t.Errorf("%s throughput = %.1f GB/s, paper %.1f", r.Host, r.GBps, w.gbps)
		}
	}
}

func within(got, want, tol float64) bool {
	return got >= want*(1-tol) && got <= want*(1+tol)
}

// TestOverlapMissRates checks §4.3: under normal load misses are rarer than
// 1 in 10^4 packets; on an overloaded core the throughput collapses by more
// than an order of magnitude and misses become common.
func TestOverlapMissRates(t *testing.T) {
	normal := OverlapMiss("normal", 0, false, 20)
	if normal.MissRate > 1e-4 {
		t.Errorf("normal-load miss rate = %.2e, paper says < 1e-4", normal.MissRate)
	}
	if normal.MBps < 800 {
		t.Errorf("normal-load throughput = %.0f MiB/s, want ~1 GB/s", normal.MBps)
	}
	over := OverlapMiss("overload", DefaultOverloadFlood, true, 10)
	if over.OverlapMisses == 0 {
		t.Error("overloaded core produced no overlap misses")
	}
	if over.MBps <= 0 {
		t.Error("overload throughput measured as zero; budget mode broken")
	}
	if over.MBps > normal.MBps/10 {
		t.Errorf("overload throughput %.0f vs normal %.0f: collapse factor only %.1fx, paper shows ~20x",
			over.MBps, normal.MBps, normal.MBps/over.MBps)
	}
	if over.ReRequests == 0 {
		t.Error("no re-requests despite overlap misses")
	}
}

// TestNPBISRowShape checks the NPB IS row of Table 2: the sort verifies and
// both optimizations help a large-message-intensive code, cache >= overlap.
func TestNPBISRowShape(t *testing.T) {
	row, res := NPBIS(npb.ClassA)
	if !res.Verified {
		t.Fatal("IS verification failed")
	}
	if row.CachePct < 0.5 || row.CachePct > 15 {
		t.Errorf("cache improvement = %.1f%%, paper 4.2%%", row.CachePct)
	}
	if row.OverlappingPct < -1 || row.OverlappingPct > 10 {
		t.Errorf("overlap improvement = %.1f%%, paper 1.9%%", row.OverlappingPct)
	}
	if row.CachePct < row.OverlappingPct-1 {
		t.Errorf("cache (%.1f%%) should be at least as good as overlap (%.1f%%) for IS",
			row.CachePct, row.OverlappingPct)
	}
}

// TestHostFrequencySensitivity checks the paper's headline range: the
// pinning-cache gain over regular pinning grows from ~5% on the fastest
// host to the high teens on the slowest (abstract: "from 5 to 20%
// depending on the host frequency").
func TestHostFrequencySensitivity(t *testing.T) {
	gain := func(spec cpu.Spec) float64 {
		measure := func(cfg omx.Config) float64 {
			cl, err := cluster.New(cluster.Config{Nodes: 2, Spec: spec, OMX: cfg})
			if err != nil {
				t.Fatal(err)
			}
			var mbps float64
			cl.Run(func(c *mpi.Comm) {
				r := imb.PingPong(c, 4<<20, 8)
				if c.Rank() == 0 {
					mbps = r.MBps
				}
			})
			return mbps
		}
		base := measure(omx.DefaultConfig(core.PinEachComm, false))
		cached := measure(omx.DefaultConfig(core.OnDemand, true))
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
