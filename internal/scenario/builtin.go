// builtin.go registers the paper's evaluation section as scenarios: every
// experiment the six old ad-hoc binaries used to hard-wire.
package scenario

import (
	"fmt"

	"omxsim/internal/core"
	"omxsim/internal/experiments"
	"omxsim/internal/imb"
	"omxsim/internal/mpi"
	"omxsim/internal/npb"
	"omxsim/internal/omx"
	"omxsim/internal/report"
)

// figure7Matrix is the paper's Figure 7 pin-policy matrix.
func figure7Matrix() []Case {
	return []Case{
		{Label: "regular", OMX: omx.DefaultConfig(core.PinEachComm, false)},
		{Label: "overlapped", OMX: omx.DefaultConfig(core.Overlapped, false)},
		{Label: "cache", OMX: omx.DefaultConfig(core.OnDemand, true)},
		{Label: "overlapped-cache", OMX: omx.DefaultConfig(core.Overlapped, true)},
	}
}

// figure6Matrix is the paper's Figure 6 matrix: pin-per-communication vs
// permanent pinning, with and without I/OAT copy offload.
func figure6Matrix() []Case {
	mk := func(policy core.PinPolicy, cache, ioat bool) omx.Config {
		cfg := omx.DefaultConfig(policy, cache)
		cfg.UseIOAT = ioat
		return cfg
	}
	return []Case{
		{Label: "pin-per-comm", OMX: mk(core.PinEachComm, false, false)},
		{Label: "permanent", OMX: mk(core.Permanent, true, false)},
		{Label: "pin-per-comm+ioat", OMX: mk(core.PinEachComm, false, true)},
		{Label: "permanent+ioat", OMX: mk(core.Permanent, true, true)},
	}
}

// pingPongWorkload runs IMB PingPong at the cell's size and records the
// throughput on rank 0.
func pingPongWorkload(c *mpi.Comm, cr *CaseRun) {
	r := imb.PingPong(c, cr.Size, imb.Iterations(cr.Size))
	if c.Rank() == 0 {
		cr.Metric("mbps", r.MBps)
	}
}

func init() {
	// figure6: the paper's Figure 6 sweep.
	MustRegister(&Scenario{
		Name:        "figure6",
		Description: "Figure 6: PingPong, pin-per-communication vs permanent pinning, with/without I/OAT",
		Cases:       figure6Matrix(),
		Sizes:       imb.LargeSizes(),
		QuickSizes:  []int{64 * 1024, 1 << 20, 16 << 20},
		Metric:      "mbps",
		Workload:    pingPongWorkload,
		Assertions:  []Assertion{MetricPositive("mbps"), Completed()},
	})

	// figure7: the paper's Figure 7 sweep.
	MustRegister(&Scenario{
		Name:        "figure7",
		Description: "Figure 7: PingPong, regular vs overlapped pinning vs pinning cache vs both",
		Cases:       figure7Matrix(),
		Sizes:       imb.LargeSizes(),
		QuickSizes:  []int{64 * 1024, 1 << 20, 16 << 20},
		Metric:      "mbps",
		Workload:    pingPongWorkload,
		Assertions:  []Assertion{MetricPositive("mbps"), Completed()},
	})

	// imb: the IMB rows of Table 2 (improvement vs regular pinning).
	MustRegister(&Scenario{
		Name:        "imb",
		Description: "Table 2 (IMB rows): execution-time improvement from the pinning cache and overlapped pinning",
		Custom:      runIMBTable2,
		Assertions: []Assertion{
			MetricAtLeast("cache_pct", -100),
			MetricAtLeast("overlap_pct", -100),
		},
	})

	// imb-all: the comparison extended past the paper's kernel set (the
	// old imbbench -all).
	MustRegister(&Scenario{
		Name:        "imb-all",
		Description: "Table 2 extended to every implemented IMB kernel (plus PingPing, Alltoall, Gather, Scatter, Barrier)",
		Custom:      runIMBAll,
		Assertions: []Assertion{
			MetricAtLeast("cache_pct", -100),
			MetricAtLeast("overlap_pct", -100),
		},
	})

	// npbis: the NPB IS row of Table 2, plus the CG-like small-message
	// surrogate (§4.4's "other NAS tests do not vary much").
	MustRegister(&Scenario{
		Name:        "npbis",
		Description: "Table 2 (NPB rows): IS on 4 ranks over 2 nodes, with the CG small-message surrogate",
		Custom:      runNPB,
		Assertions: []Assertion{
			MetricAtLeast("verified", 1),
		},
	})

	// overlapmiss: the §4.3 counters under normal load and the
	// overloaded-core collapse.
	MustRegister(&Scenario{
		Name:        "overlapmiss",
		Description: "Section 4.3: overlap-miss rate under normal load, and the overloaded-core throughput collapse",
		Custom:      runOverlapMiss,
		Assertions: []Assertion{
			{Name: "normal-load miss rate < 1e-2", Check: func(run *Run) (bool, string) {
				for _, cr := range run.Cases {
					if cr.Param("load") == "normal" {
						if rate := cr.Metrics["miss_rate"]; rate >= 0.01 {
							return false, fmt.Sprintf("miss_rate = %g", rate)
						}
						return true, ""
					}
				}
				return false, "no normal-load case"
			}},
			{Name: "overload collapses throughput", Check: func(run *Run) (bool, string) {
				var normal, overloaded float64
				for _, cr := range run.Cases {
					switch cr.Param("load") {
					case "normal":
						normal = cr.Metrics["mbps"]
					case "overloaded":
						overloaded = cr.Metrics["mbps"]
					}
				}
				if normal == 0 || overloaded == 0 {
					return false, fmt.Sprintf("mbps missing (normal=%g overloaded=%g)", normal, overloaded)
				}
				if overloaded >= normal/2 {
					return false, fmt.Sprintf("overloaded %.1f MiB/s vs normal %.1f MiB/s", overloaded, normal)
				}
				return true, ""
			}},
		},
	})

	// overload: the flood-level ablation behind §4.3.
	MustRegister(&Scenario{
		Name:        "overload",
		Description: "Interrupt-flood sweep: goodput and miss rate vs bottom-half load on the pinning core",
		Custom:      runFloodSweep,
		Assertions:  []Assertion{MetricAtLeast("mbps", 0)},
	})

	// pinbench: Table 1, the pin+unpin micro-costs per host.
	MustRegister(&Scenario{
		Name:        "pinbench",
		Description: "Table 1: base and per-page pin+unpin overhead and pinning throughput per evaluation host",
		Custom:      runTable1,
		Assertions: []Assertion{
			MetricPositive("ns_per_page"),
			MetricPositive("base_us"),
		},
	})
}

// runIMBTable2 wraps experiments.Table2IMB (the paper's kernel set) as a
// scenario.
func runIMBTable2(run *Run) error {
	return runIMBRows(run, experiments.Table2IMB)
}

// runIMBAll extends the sweep to every implemented kernel.
func runIMBAll(run *Run) error {
	return runIMBRows(run, func(sizes []int) []experiments.Table2Row {
		return experiments.Table2AllIMB(sizes, func(string) bool { return true })
	})
}

func runIMBRows(run *Run, rows func(sizes []int) []experiments.Table2Row) error {
	sizes := imb.DefaultSizes()
	if run.Opts.Quick {
		sizes = []int{4096, 256 * 1024, 4 << 20}
	}
	run.Result.Param("sizes", sizeList(sizes))
	t := report.Table{
		Title:   "execution-time improvement vs regular pinning",
		Columns: []string{"application", "pinning-cache", "overlapping"},
	}
	for _, row := range rows(sizes) {
		cr := run.AddCase(row.Application)
		cr.Completed = true
		cr.Metric("cache_pct", row.CachePct)
		cr.Metric("overlap_pct", row.OverlappingPct)
		t.AddRow(row.Application, report.Pct(row.CachePct), report.Pct(row.OverlappingPct))
	}
	run.Result.AddTable(t)
	return nil
}

// runNPB wraps experiments.NPBIS and NPBCG as a scenario. The defaults
// mirror the old npbis binary: the C-shaped scaled class for the paper's
// Table 2 row, Class A under -quick.
func runNPB(run *Run) error {
	class := npb.ClassCSim
	if run.Opts.Quick {
		class = npb.ClassA
	}
	run.Result.Param("is-class", class.Name)
	t := report.Table{
		Title:   "execution-time improvement vs regular pinning",
		Columns: []string{"application", "pinning-cache", "overlapping"},
	}

	isRow, isRes := experiments.NPBIS(class)
	cr := run.AddCase(isRow.Application)
	cr.Completed = true
	cr.Metric("cache_pct", isRow.CachePct)
	cr.Metric("overlap_pct", isRow.OverlappingPct)
	cr.Metric("mops", isRes.MopsTotal)
	cr.Metric("verified", boolMetric(isRes.Verified))
	t.AddRow(isRow.Application, report.Pct(isRow.CachePct), report.Pct(isRow.OverlappingPct))

	cgRow, cgRes := experiments.NPBCG(npb.CGClassA)
	cg := run.AddCase(cgRow.Application)
	cg.Completed = true
	cg.Metric("cache_pct", cgRow.CachePct)
	cg.Metric("overlap_pct", cgRow.OverlappingPct)
	cg.Metric("verified", boolMetric(cgRes.Verified))
	cg.Note("paper §4.4: small-message kernels 'do not vary much'")
	t.AddRow(cgRow.Application, report.Pct(cgRow.CachePct), report.Pct(cgRow.OverlappingPct))

	run.Result.AddTable(t)
	return nil
}

// runOverlapMiss wraps experiments.OverlapMissSection43 as a scenario.
func runOverlapMiss(run *Run) error {
	itersNormal, itersOverload := 0, 0 // experiments defaults
	if run.Opts.Quick {
		itersNormal, itersOverload = 10, 5
	}
	results := experiments.OverlapMissSection43(itersNormal, itersOverload)
	loads := []string{"normal", "overloaded"}
	t := report.Table{
		Title:   "overlap-miss behaviour of overlapped pinning",
		Columns: []string{"scenario", "pull replies", "misses", "miss rate", "re-reqs", "MiB/s"},
	}
	for i, r := range results {
		cr := run.AddCase(r.Label)
		cr.Case.Params = map[string]string{"load": loads[i]}
		cr.Completed = true
		cr.Metric("mbps", r.MBps)
		cr.Metric("miss_rate", r.MissRate)
		cr.Metric("misses", float64(r.OverlapMisses))
		cr.Metric("rereqs", float64(r.ReRequests))
		t.AddRow(r.Label, report.D(int64(r.PullReplies)), report.D(int64(r.OverlapMisses)),
			report.E(r.MissRate), report.D(int64(r.ReRequests)), report.F(r.MBps, 1))
	}
	run.Result.AddTable(t)
	run.Result.Note("paper: <1 miss per 10^4 packets under regular load; ~1 GB/s -> ~50 MB/s on an overloaded core")
	return nil
}

// runFloodSweep wraps experiments.FloodSweep as a scenario.
func runFloodSweep(run *Run) error {
	levels := []float64{0, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99}
	if run.Opts.Quick {
		levels = []float64{0, 0.8, 0.95}
	}
	t := report.Table{
		Title:   "goodput vs synthetic bottom-half load on the pinning core",
		Columns: []string{"flood", "app core", "replies", "misses", "miss rate", "MiB/s"},
	}
	for _, r := range experiments.FloodSweep(levels) {
		cr := run.AddCase(fmt.Sprintf("flood=%.2f", r.FloodUtilization))
		cr.Completed = true
		cr.Metric("mbps", r.MBps)
		cr.Metric("miss_rate", r.MissRate)
		where := "own core"
		if r.AppOnRxCore {
			where = "RX core"
		}
		t.AddRow(fmt.Sprintf("%.2f", r.FloodUtilization), where,
			report.D(int64(r.PullReplies)), report.D(int64(r.OverlapMisses)),
			report.E(r.MissRate), report.F(r.MBps, 1))
	}
	run.Result.AddTable(t)
	return nil
}

// runTable1 wraps experiments.Table1 as a scenario.
func runTable1(run *Run) error {
	t := report.Table{
		Title:   "base and per-page pin+unpin overhead per host",
		Columns: []string{"processor", "GHz", "base us", "ns/page", "GB/s"},
	}
	for _, r := range experiments.Table1() {
		cr := run.AddCase(r.Host)
		cr.Completed = true
		cr.Metric("base_us", r.BaseMicros)
		cr.Metric("ns_per_page", r.NsPerPage)
		cr.Metric("gbps", r.GBps)
		t.AddRow(r.Host, report.F(r.GHz, 2), report.F(r.BaseMicros, 1),
			report.F(r.NsPerPage, 0), report.F(r.GBps, 1))
	}
	run.Result.AddTable(t)
	return nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
