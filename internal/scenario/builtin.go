// builtin.go registers the paper's evaluation section (§4) as scenarios:
// Figure 7, Table 1, the §4.3 overlap-miss runs and Table 2, each an
// ordinary case matrix the declarative runner drives cell by cell.
// Figure 6 ships as the embedded spec specs/figure6.yaml.
package scenario

import (
	"fmt"

	"omxsim/internal/cluster"
	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/imb"
	"omxsim/internal/mpi"
	"omxsim/internal/npb"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/report"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// figure7Matrix is the paper's Figure 7 pin-policy matrix.
func figure7Matrix() []Case {
	return []Case{
		{Label: "regular", OMX: omx.DefaultConfig(policy.PinEachComm, false)},
		{Label: "overlapped", OMX: omx.DefaultConfig(policy.Overlapped, false)},
		{Label: "cache", OMX: omx.DefaultConfig(policy.OnDemand, true)},
		{Label: "overlapped-cache", OMX: omx.DefaultConfig(policy.Overlapped, true)},
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

// Table 2 compares every application under three configurations. Its
// cells share the application's label and differ in policy; the
// regular-pinning cell is the baseline that carries the row's
// improvement percentages.
var (
	table2Base    = policy.PinEachComm.Name()
	table2Cache   = policy.OnDemand.Name()
	table2Overlap = policy.Overlapped.Name()
)

// table2Cases crosses each application with Table 2's configurations:
// regular pinning, the pinning cache, and overlapped pinning.
func table2Cases(apps ...string) []Case {
	var cases []Case
	for _, app := range apps {
		for _, cfg := range []omx.Config{
			omx.DefaultConfig(policy.PinEachComm, false),
			omx.DefaultConfig(policy.OnDemand, true),
			omx.DefaultConfig(policy.Overlapped, false),
		} {
			cases = append(cases, Case{Label: app, OMX: cfg})
		}
	}
	return cases
}

// table2Row returns an application's three cells, or ok == false when
// the -policy filter removed any of them.
func table2Row(run *Run, app string) (base, cache, overlap *CaseRun, ok bool) {
	for _, cr := range run.Cases {
		if cr.Case.Label != app {
			continue
		}
		switch cr.PolicyName {
		case table2Base:
			base = cr
		case table2Cache:
			cache = cr
		case table2Overlap:
			overlap = cr
		}
	}
	return base, cache, overlap, base != nil && cache != nil && overlap != nil
}

// improvement is the execution-time gain of opt over base, in percent.
func improvement(base, opt float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - opt) / base * 100
}

// table2Report computes each complete application row's improvements
// from its cells' elapsed_ns, records them on the baseline cell, and
// renders Table 2 with rowName naming each application's row.
func table2Report(run *Run, rowName func(app string) string) {
	t := report.Table{
		Title:   "execution-time improvement vs regular pinning",
		Columns: []string{"application", "pinning-cache", "overlapping"},
	}
	for _, app := range run.Scenario.PolicyLabels() {
		base, cache, overlap, ok := table2Row(run, app)
		if !ok {
			continue
		}
		cachePct := improvement(base.Metrics["elapsed_ns"], cache.Metrics["elapsed_ns"])
		overlapPct := improvement(base.Metrics["elapsed_ns"], overlap.Metrics["elapsed_ns"])
		base.Metric("cache_pct", cachePct)
		base.Metric("overlap_pct", overlapPct)
		t.AddRow(rowName(app), report.Pct(cachePct), report.Pct(overlapPct))
	}
	if len(t.Rows) > 0 {
		run.Result.AddTable(t)
	}
}

// improvementAtLeast asserts metric >= min on the baseline cell of every
// complete Table 2 row; rows the -policy filter cut pass vacuously.
func improvementAtLeast(metric string, min float64) Assertion {
	return Assertion{Name: fmt.Sprintf("%s >= %g", metric, min), Check: func(run *Run) (bool, string) {
		for _, app := range run.Scenario.PolicyLabels() {
			base, _, _, ok := table2Row(run, app)
			if !ok {
				continue
			}
			v, recorded := base.Metrics[metric]
			if !recorded {
				return false, fmt.Sprintf("%s: metric %q not recorded", app, metric)
			}
			if v < min {
				return false, fmt.Sprintf("%s: %s = %g < %g", app, metric, v, min)
			}
		}
		return true, ""
	}}
}

// imbCases is Table 2's IMB matrix: one application per kernel.
func imbCases(kernels []imb.Kernel) []Case {
	apps := make([]string, len(kernels))
	for i, k := range kernels {
		apps[i] = "IMB " + k.Name
	}
	return table2Cases(apps...)
}

// imbQuickSizes is Table 2's IMB size schedule under -quick; full runs
// sweep IMB's 4 B..4 MiB schedule.
var imbQuickSizes = []int{4096, 256 * 1024, 4 << 20}

func imbSizes(quick bool) []int {
	if quick {
		return imbQuickSizes
	}
	return imb.DefaultSizes()
}

// imbSweepWorkload runs the cell's IMB kernel over the size schedule and
// records rank 0's total timed duration in exact integer nanoseconds,
// the execution time Table 2 compares.
func imbSweepWorkload(c *mpi.Comm, cr *CaseRun) {
	for _, k := range imb.AllKernels() {
		if "IMB "+k.Name != cr.Case.Label {
			continue
		}
		t, _ := imb.RunSweep(c, k, imbSizes(cr.Quick))
		if c.Rank() == 0 {
			cr.Metric("elapsed_ns", float64(t))
		}
	}
}

// imbReport records the size schedule and renders the IMB rows.
func imbReport(run *Run) {
	run.Result.Param("sizes", sizeList(imbSizes(run.Opts.Quick)))
	table2Report(run, func(app string) string { return app })
}

// npbISClass is the IS class of the NPB row: the C-shaped scaled class
// for the paper's is.C.4, Class A under -quick.
func npbISClass(quick bool) npb.Class {
	if quick {
		return npb.ClassA
	}
	return npb.ClassCSim
}

// npbWorkload runs the cell's NPB kernel, IS or the CG-like small-message
// surrogate, and records rank 0's timed region, its verification and, for
// IS, its Mop/s.
func npbWorkload(c *mpi.Comm, cr *CaseRun) {
	var elapsed sim.Duration
	var verified bool
	if cr.Case.Label == "NPB is" {
		r := npb.Run(c, npbISClass(cr.Quick))
		elapsed, verified = r.Elapsed, r.Verified
		if c.Rank() == 0 {
			cr.Metric("mops", r.MopsTotal)
		}
	} else {
		r := npb.RunCG(c, npb.CGClassA)
		elapsed, verified = r.Elapsed, r.Verified
	}
	if c.Rank() == 0 {
		cr.Metric("elapsed_ns", float64(elapsed))
		cr.Metric("verified", boolMetric(verified))
	}
}

// npbReport records the IS class and renders the NPB rows, named like
// the paper's is.C.4 (4 ranks).
func npbReport(run *Run) {
	isClass := npbISClass(run.Opts.Quick)
	run.Result.Param("is-class", isClass.Name)
	table2Report(run, func(app string) string {
		if app == "NPB is" {
			return app + "." + isClass.Name + ".4"
		}
		return app + "." + npb.CGClassA.Name + ".4"
	})
	if base, _, _, ok := table2Row(run, "NPB cg-like"); ok {
		base.Note("paper §4.4: small-message kernels 'do not vary much'")
	}
}

// overloadFlood is the bottom-half utilization that reproduces the
// paper's "1 GB/s down to 50 MB/s" data point (calibrated by the
// overload sweep).
const overloadFlood = 0.95

// section43Budget bounds every §4.3 cell: a saturated core may never let
// the PingPong finish (bottom halves can starve pinning indefinitely
// under strict priority, the live-lock the paper's 50 MB/s floor hints
// at), so the cell then reports the goodput accepted within the budget.
const section43Budget = 100 * sim.Millisecond

// section43Case is one §4.3 cell: a 1 MiB PingPong under overlapped
// pinning. A flood above zero moves every rank onto its node's interrupt
// core and saturates that core with synthetic bottom-half work, armed on
// each node's own engine.
func section43Case(label string, flood float64) Case {
	load := "normal"
	if flood > 0 {
		load = "overloaded"
	}
	return Case{
		Label:  label,
		OMX:    omx.DefaultConfig(policy.Overlapped, false),
		Params: map[string]string{"load": load, "flood": fmt.Sprintf("%.2f", flood)},
		Tweak: func(cfg *cluster.Config) {
			if flood == 0 {
				return
			}
			cfg.AppsOnRxCore = true
			cfg.OnBuild = append(cfg.OnBuild, func(cl *cluster.Cluster) {
				for _, n := range cl.Nodes {
					startFlood(n.Eng, n.RxCore(), flood)
				}
			})
		},
	}
}

// section43Workload is the §4.3 body: a 1 MiB PingPong of iters(load,
// quick) iterations whose throughput rank 0 records.
func section43Workload(iters func(load string, quick bool) int) Workload {
	return func(c *mpi.Comm, cr *CaseRun) {
		r := imb.PingPong(c, 1<<20, iters(cr.Param("load"), cr.Quick))
		if c.Rank() == 0 {
			cr.Metric("mbps", r.MBps)
		}
	}
}

// section43Stats derives a §4.3 cell's miss rate from the runner's
// counters and, when the budget expired before the run completed,
// replaces its throughput with the goodput of the pull replies accepted
// within the budget.
func section43Stats(run *Run, cr *CaseRun) (replies, misses, rate float64) {
	replies, misses = cr.Metrics["stats.pull_replies"], cr.Metrics["stats.overlap_misses"]
	if total := replies + misses; total > 0 {
		rate = misses / total
	}
	cr.Metric("miss_rate", rate)
	if !cr.Completed {
		frag := float64(cr.Cluster.Nodes[0].NIC.MTU() - 32) // payload per pull reply
		cr.Metric("mbps", replies*frag/run.Scenario.Budget.Seconds()/(1<<20))
	}
	return replies, misses, rate
}

// overlapMissReport renders the §4.3 counters.
func overlapMissReport(run *Run) {
	t := report.Table{
		Title:   "overlap-miss behaviour of overlapped pinning",
		Columns: []string{"scenario", "pull replies", "misses", "miss rate", "re-reqs", "MiB/s"},
	}
	for _, cr := range run.Cases {
		replies, misses, rate := section43Stats(run, cr)
		rereqs := cr.Metrics["stats.rereqs"]
		cr.Metric("misses", misses)
		cr.Metric("rereqs", rereqs)
		t.AddRow(cr.Case.Label, report.D(int64(replies)), report.D(int64(misses)),
			report.E(rate), report.D(int64(rereqs)), report.F(cr.Metrics["mbps"], 1))
	}
	run.Result.AddTable(t)
	run.Result.Note("paper: <1 miss per 10^4 packets under regular load; ~1 GB/s -> ~50 MB/s on an overloaded core")
}

// overloadReport renders goodput and miss rate per flood level.
func overloadReport(run *Run) {
	t := report.Table{
		Title:   "goodput vs synthetic bottom-half load on the pinning core",
		Columns: []string{"flood", "app core", "replies", "misses", "miss rate", "MiB/s"},
	}
	for _, cr := range run.Cases {
		replies, misses, rate := section43Stats(run, cr)
		where := "own core"
		if cr.Param("load") == "overloaded" {
			where = "RX core"
		}
		t.AddRow(cr.Param("flood"), where, report.D(int64(replies)), report.D(int64(misses)),
			report.E(rate), report.F(cr.Metrics["mbps"], 1))
	}
	run.Result.AddTable(t)
}

// loadMBps returns the throughput of the cell running load, if one ran.
func loadMBps(run *Run, load string) (float64, bool) {
	for _, cr := range run.Cases {
		if cr.Param("load") == load {
			return cr.Metrics["mbps"], true
		}
	}
	return 0, false
}

// table1Pages is the large region Table 1's per-page cost is measured
// on; one-page regions give the base cost.
const table1Pages = 4096

// pinUnpinWorkload times a pin+unpin cycle of one page and of
// table1Pages pages on the rank's manager and core and derives Table 1's
// base and per-page costs from the two kernel-time deltas.
func pinUnpinWorkload(c *mpi.Comm, cr *CaseRun) {
	t1 := pinUnpin(c, 1)
	tN := pinUnpin(c, table1Pages)
	perPage := float64(tN-t1) / float64(table1Pages-1)
	base := float64(t1) - perPage
	cr.Metric("base_us", base/1000)
	cr.Metric("ns_per_page", perPage)
	cr.Metric("gbps", float64(vm.PageSize)/perPage)
}

// pinUnpin returns the kernel CPU time one declare, acquire and release
// of a fresh pages-page buffer costs under pin-per-communication.
func pinUnpin(c *mpi.Comm, pages int) sim.Duration {
	ep := c.Endpoint()
	mgr, kcore := ep.Manager(), ep.Core()
	n := pages * vm.PageSize
	r, err := mgr.Declare([]core.Segment{{Addr: c.Malloc(n), Len: n}})
	if err != nil {
		panic(err)
	}
	before := kcore.BusyTime(cpu.Kernel)
	if err := mgr.Acquire(r).Wait(c.Proc()); err != nil {
		panic(err)
	}
	mgr.Release(r)
	kcore.Exec(c.Proc(), cpu.Kernel, 0) // queues behind the unpin work
	return kcore.BusyTime(cpu.Kernel) - before
}

// table1Cases is one cell per Table 1 host: a one-node cluster of that
// CPU under pin-per-communication.
func table1Cases() []Case {
	var cases []Case
	for _, spec := range cpu.Table1Hosts() {
		cases = append(cases, Case{
			Label: spec.Name,
			OMX:   omx.DefaultConfig(policy.PinEachComm, false),
			Tweak: func(cfg *cluster.Config) { cfg.Spec = spec },
		})
	}
	return cases
}

// table1Report renders Table 1.
func table1Report(run *Run) {
	t := report.Table{
		Title:   "base and per-page pin+unpin overhead per host",
		Columns: []string{"processor", "GHz", "base us", "ns/page", "GB/s"},
	}
	for _, cr := range run.Cases {
		t.AddRow(cr.Case.Label, report.F(cr.Cluster.Nodes[0].Machine.Spec.GHz, 2),
			report.F(cr.Metrics["base_us"], 1), report.F(cr.Metrics["ns_per_page"], 0),
			report.F(cr.Metrics["gbps"], 1))
	}
	run.Result.AddTable(t)
}

func init() {
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

	table2Assertions := []Assertion{
		improvementAtLeast("cache_pct", -100),
		improvementAtLeast("overlap_pct", -100),
	}

	// imb: the IMB rows of Table 2 (improvement vs regular pinning).
	MustRegister(&Scenario{
		Name:        "imb",
		Description: "Table 2 (IMB rows): execution-time improvement from the pinning cache and overlapped pinning",
		Cases:       imbCases(imb.Table2Kernels()),
		Workload:    imbSweepWorkload,
		Report:      imbReport,
		Assertions:  table2Assertions,
	})

	// imb-all: the comparison extended past the paper's kernel set.
	MustRegister(&Scenario{
		Name:        "imb-all",
		Description: "Table 2 extended to every implemented IMB kernel (plus PingPing, Alltoall, Gather, Scatter, Barrier)",
		Cases:       imbCases(imb.AllKernels()),
		Workload:    imbSweepWorkload,
		Report:      imbReport,
		Assertions:  table2Assertions,
	})

	// npbis: the NPB IS row of Table 2 (4 ranks on 2 nodes, like the
	// paper's is.C.4), plus the CG-like small-message surrogate (§4.4's
	// "other NAS tests do not vary much").
	MustRegister(&Scenario{
		Name:        "npbis",
		Description: "Table 2 (NPB rows): IS on 4 ranks over 2 nodes, with the CG small-message surrogate",
		Cluster:     cluster.Config{Nodes: 2, RanksPerNode: 2},
		Cases:       table2Cases("NPB is", "NPB cg-like"),
		Workload:    npbWorkload,
		Report:      npbReport,
		Assertions:  []Assertion{MetricAtLeast("verified", 1)},
	})

	// overlapmiss: the §4.3 counters under normal load and the
	// overloaded-core collapse.
	MustRegister(&Scenario{
		Name:        "overlapmiss",
		Description: "Section 4.3: overlap-miss rate under normal load, and the overloaded-core throughput collapse",
		Cases: []Case{
			section43Case("normal load (app on own core)", 0),
			section43Case("overloaded core (app on RX core, interrupt flood)", overloadFlood),
		},
		Workload: section43Workload(func(load string, quick bool) int {
			switch {
			case load == "normal" && quick:
				return 10
			case load == "normal":
				return 30
			case quick:
				return 5
			default:
				return 10
			}
		}),
		Budget: section43Budget,
		Report: overlapMissReport,
		Assertions: []Assertion{
			EachCaseWhere("normal-load miss rate < 1e-2",
				func(cr *CaseRun) bool { return cr.Param("load") == "normal" },
				func(cr *CaseRun) (bool, string) {
					if rate := cr.Metrics["miss_rate"]; rate >= 0.01 {
						return false, fmt.Sprintf("miss_rate = %g", rate)
					}
					return true, ""
				}),
			{Name: "overload collapses throughput", Check: func(run *Run) (bool, string) {
				normal, okN := loadMBps(run, "normal")
				overloaded, okO := loadMBps(run, "overloaded")
				if !okN || !okO {
					return true, "" // the -policy filter removed a side
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

	// overload: the flood-level ablation behind §4.3's claim that the
	// collapse appears only when the pinning core is severely overloaded.
	var floodCases []Case
	for _, u := range []float64{0, 0.5, 0.7, 0.8, 0.9, overloadFlood, 0.99} {
		floodCases = append(floodCases, section43Case(fmt.Sprintf("flood=%.2f", u), u))
	}
	MustRegister(&Scenario{
		Name:        "overload",
		Description: "Interrupt-flood sweep: goodput and miss rate vs bottom-half load on the pinning core",
		Cases:       floodCases,
		Workload: section43Workload(func(load string, _ bool) int {
			if load == "normal" {
				return 20
			}
			return 10
		}),
		Budget:     section43Budget,
		Report:     overloadReport,
		Assertions: []Assertion{MetricAtLeast("mbps", 0)},
	})

	// pinbench: Table 1, the pin+unpin micro-costs per host.
	MustRegister(&Scenario{
		Name:        "pinbench",
		Description: "Table 1: base and per-page pin+unpin overhead and pinning throughput per evaluation host",
		Cluster:     cluster.Config{Nodes: 1},
		Cases:       table1Cases(),
		Workload:    pinUnpinWorkload,
		Report:      table1Report,
		Assertions: []Assertion{
			MetricPositive("ns_per_page"),
			MetricPositive("base_us"),
		},
	})
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
