// Package experiments reproduces the tables and sweeps of the paper's
// evaluation section (§4) that do not fit a declarative scenario:
//
//	Table 1  — pin+unpin base/per-page overhead per host        (Table1)
//	§4.3     — overlap-miss rate and overloaded-core collapse   (OverlapMiss, Overload)
//	Table 2  — IMB + NPB IS execution-time improvements         (Table2, NPBIS)
//
// Figures 6 and 7 are plain PingPong sweeps: the scenario registry
// declares them (figure6, figure7). Each function here builds fresh
// clusters, runs the workload, and returns structured rows; the scenario
// registry and bench_test.go render them.
// These sweeps fix their config matrices to the paper's policies;
// comparisons across the full pluggable-backend registry (ODP,
// pin-ahead, ...) live in the scenario layer's policy-* and multitenant
// scenarios instead.
package experiments

import (
	"fmt"

	"omxsim/internal/cluster"
	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/imb"
	"omxsim/internal/mpi"
	"omxsim/internal/npb"
	"omxsim/internal/omx"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// Table1Row is one host's pinning overhead, measured through the full
// driver path (declare/acquire/release on a simulated core), not computed
// from the spec.
type Table1Row struct {
	Host       string  `json:"host"`
	GHz        float64 `json:"ghz"`
	BaseMicros float64 `json:"base_us"`     // pin+unpin base overhead, µs
	NsPerPage  float64 `json:"ns_per_page"` // pin+unpin marginal cost per page
	GBps       float64 `json:"pin_gbps"`    // pinning throughput, pagesize/perpage
}

// Table1 measures pin+unpin cost on each of the paper's hosts by pinning
// regions of 1 page and `bigPages` pages through the region manager and
// differencing the kernel-time deltas.
func Table1() []Table1Row {
	const bigPages = 4096
	var rows []Table1Row
	for _, spec := range cpu.Table1Hosts() {
		t1 := measurePinUnpin(spec, 1)
		tN := measurePinUnpin(spec, bigPages)
		perPage := float64(tN-t1) / float64(bigPages-1)
		base := float64(t1) - perPage
		rows = append(rows, Table1Row{
			Host:       spec.Name,
			GHz:        spec.GHz,
			BaseMicros: base / 1000,
			NsPerPage:  perPage,
			GBps:       float64(vm.PageSize) / perPage,
		})
	}
	return rows
}

// measurePinUnpin returns the kernel CPU time consumed by one full
// pin+unpin cycle of a region of `pages` pages.
func measurePinUnpin(spec cpu.Spec, pages int) sim.Duration {
	eng := sim.NewEngine(1)
	machine := cpu.NewMachine(eng, spec)
	as := vm.NewAddressSpace(1, vm.NewPhysMem(0))
	al, err := vm.NewAllocator(as, 0, 0)
	if err != nil {
		panic(err)
	}
	c := machine.Core(0)
	mgr := core.NewManager(eng, as, c, core.ManagerConfig{Policy: core.PinEachComm})
	addr, err := al.Malloc(pages * vm.PageSize)
	if err != nil {
		panic(err)
	}
	r, err := mgr.Declare([]core.Segment{{Addr: addr, Len: pages * vm.PageSize}})
	if err != nil {
		panic(err)
	}
	before := c.BusyTime(cpu.Kernel)
	done := mgr.Acquire(r)
	eng.Run()
	if done.Err() != nil {
		panic(done.Err())
	}
	mgr.Release(r)
	eng.Run()
	return c.BusyTime(cpu.Kernel) - before
}

// Table2Row is one benchmark's execution-time improvement relative to the
// regular-pinning baseline, as in the paper's Table 2.
type Table2Row struct {
	Application    string  `json:"application"`
	CachePct       float64 `json:"cache_pct"`   // improvement with the pinning cache
	OverlappingPct float64 `json:"overlap_pct"` // improvement with overlapped pinning
}

// table2Configs returns (baseline, cache, overlap) configurations.
func table2Configs() (omx.Config, omx.Config, omx.Config) {
	return omx.DefaultConfig(core.PinEachComm, false),
		omx.DefaultConfig(core.OnDemand, true),
		omx.DefaultConfig(core.Overlapped, false)
}

// runIMBTotal runs one IMB kernel sweep under cfg and returns rank 0's
// total timed duration.
func runIMBTotal(k imb.Kernel, cfg omx.Config, ranksPerNode int, sizes []int) sim.Duration {
	cl, err := cluster.New(cluster.Config{
		Nodes: 2, RanksPerNode: ranksPerNode, OMX: cfg,
	})
	if err != nil {
		panic(err)
	}
	var total sim.Duration
	cl.Run(func(c *mpi.Comm) {
		t, _ := imb.RunSweep(c, k, sizes)
		if c.Rank() == 0 {
			total = t
		}
	})
	return total
}

// Table2IMB computes the IMB rows of Table 2 (2 nodes, 1 rank each, full
// size sweep).
func Table2IMB(sizes []int) []Table2Row {
	return Table2IMBFiltered(sizes, func(string) bool { return true })
}

// Table2IMBFiltered is Table2IMB restricted to kernels accepted by keep.
func Table2IMBFiltered(sizes []int, keep func(name string) bool) []Table2Row {
	return table2Rows(imb.Table2Kernels(), sizes, keep)
}

// Table2AllIMB extends the Table 2 comparison to every implemented IMB
// kernel (the paper's set plus PingPing, Alltoall, Gather, Scatter,
// Barrier).
func Table2AllIMB(sizes []int, keep func(name string) bool) []Table2Row {
	return table2Rows(imb.AllKernels(), sizes, keep)
}

func table2Rows(kernels []imb.Kernel, sizes []int, keep func(name string) bool) []Table2Row {
	if sizes == nil {
		sizes = imb.DefaultSizes()
	}
	base, cache, overlap := table2Configs()
	var rows []Table2Row
	for _, k := range kernels {
		if !keep(k.Name) {
			continue
		}
		tBase := runIMBTotal(k, base, 1, sizes)
		tCache := runIMBTotal(k, cache, 1, sizes)
		tOver := runIMBTotal(k, overlap, 1, sizes)
		rows = append(rows, Table2Row{
			Application:    "IMB " + k.Name,
			CachePct:       improvement(tBase, tCache),
			OverlappingPct: improvement(tBase, tOver),
		})
	}
	return rows
}

// NPBIS computes the NPB IS row of Table 2 (4 ranks on 2 nodes, like the
// paper's is.C.4) and returns the row plus the verified baseline result.
func NPBIS(class npb.Class) (Table2Row, npb.Result) {
	base, cache, overlap := table2Configs()
	run := func(cfg omx.Config) (sim.Duration, npb.Result) {
		cl, err := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 2, OMX: cfg})
		if err != nil {
			panic(err)
		}
		var res npb.Result
		cl.Run(func(c *mpi.Comm) {
			r := npb.Run(c, class)
			if c.Rank() == 0 {
				res = r
			}
		})
		if !res.Verified {
			panic(fmt.Sprintf("NPB IS verification failed under %v", cfg.Policy))
		}
		return res.Elapsed, res
	}
	tBase, resBase := run(base)
	tCache, _ := run(cache)
	tOver, _ := run(overlap)
	row := Table2Row{
		Application:    fmt.Sprintf("NPB is.%s.4", class.Name),
		CachePct:       improvement(tBase, tCache),
		OverlappingPct: improvement(tBase, tOver),
	}
	return row, resBase
}

// NPBCG runs the small-message CG surrogate under the three pinning
// configurations — the paper's §4.4 negative result ("the performance of
// other NAS tests does not vary much since they mostly rely on small
// messages").
func NPBCG(class npb.CGClass) (Table2Row, npb.CGResult) {
	base, cache, overlap := table2Configs()
	run := func(cfg omx.Config) (sim.Duration, npb.CGResult) {
		cl, err := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 2, OMX: cfg})
		if err != nil {
			panic(err)
		}
		var res npb.CGResult
		cl.Run(func(c *mpi.Comm) {
			r := npb.RunCG(c, class)
			if c.Rank() == 0 {
				res = r
			}
		})
		if !res.Verified {
			panic(fmt.Sprintf("NPB CG verification failed under %v", cfg.Policy))
		}
		return res.Elapsed, res
	}
	tBase, resBase := run(base)
	tCache, _ := run(cache)
	tOver, _ := run(overlap)
	row := Table2Row{
		Application:    fmt.Sprintf("NPB cg-like.%s.4", class.Name),
		CachePct:       improvement(tBase, tCache),
		OverlappingPct: improvement(tBase, tOver),
	}
	return row, resBase
}

func improvement(base, opt sim.Duration) float64 {
	if base == 0 {
		return 0
	}
	return (float64(base) - float64(opt)) / float64(base) * 100
}
