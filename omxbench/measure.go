package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"omxsim/internal/cluster"
	"omxsim/internal/cpu"
	"omxsim/internal/vm"
)

// repStats is one rep's measurements.
type repStats struct {
	seed int64
	// calib is how long calibrate took right before the rep.
	calib time.Duration
	setup time.Duration // cluster.New
	wall  time.Duration // Cluster.Run through Cluster.Close
	close time.Duration
	// allocs and allocBytes count heap allocation during the run;
	// setupKBPerNode is the heap cluster.New allocated per node.
	allocs, allocBytes uint64
	setupKBPerNode     float64
	counts             map[string]float64 // per-layer counts, read after the run
	out                outcome
}

// runRep runs one rep, with a forced collection first, outside the timed
// region. When live is non-nil it also stores the live heap in MB after
// Cluster.Run, with the cluster still open.
func runRep(w workload, seed int64, spans *spanLog, live *float64) repStats {
	r := w.newRep(seed, spans)
	rs := repStats{seed: seed, calib: calibrate()}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	cl, err := cluster.New(r.cfg)
	rs.setup = time.Since(t0)
	spans.host("cluster.New", t0)
	if err != nil {
		rs.out = outcome{attempted: 1, failed: 1, problems: []string{fmt.Sprintf("cluster.New: %v", err)}}
		return rs
	}
	runtime.ReadMemStats(&m1)
	rs.setupKBPerNode = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(cl.Nodes))
	windows := 0
	if cl.Set != nil {
		cl.Set.AddBarrierHook(func() { windows++ })
	}

	t1 := time.Now()
	runErr := catch(func() { cl.Run(r.body) })
	spans.host("Cluster.Run", t1)
	if live != nil {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		*live = float64(ms.HeapAlloc) / 1e6
	}
	t2 := time.Now()
	finishErr := catch(func() { r.finish(cl, &rs.out) })
	spans.host("collect results", t2)
	t3 := time.Now()
	leaked := 0
	closeErr := catch(func() { leaked = cl.Close() })
	spans.host("Cluster.Close", t3)
	rs.close = time.Since(t3)
	rs.wall = time.Since(t1)
	runtime.ReadMemStats(&m2)
	rs.allocs, rs.allocBytes = m2.Mallocs-m1.Mallocs, m2.TotalAlloc-m1.TotalAlloc
	rs.counts = layerCounts(cl, &rs.out, windows)

	// A failed run or a pin leak taints every operation of the rep.
	o := &rs.out
	for _, e := range []struct {
		what string
		err  error
	}{{"Cluster.Run", runErr}, {"collecting results", finishErr}, {"Cluster.Close", closeErr}} {
		if e.err != nil {
			o.problems = append(o.problems, fmt.Sprintf("%s: %v", e.what, e.err))
		}
	}
	if leaked != 0 {
		o.problems = append(o.problems, fmt.Sprintf("Cluster.Close: %d pages still pinned or mis-accounted", leaked))
	}
	if runErr != nil || finishErr != nil || closeErr != nil || leaked != 0 {
		o.attempted = max(o.attempted, 1)
		o.failed = o.attempted
	}
	return rs
}

// refCalibration is calibrate's median time on the reference host (see
// README.md); host times scaled by it read as milliseconds there.
const refCalibration = 6 * time.Millisecond

// norm scales a host time measured in the rep to the reference host, by
// how much slower or faster than there calibrate ran right before the rep.
// Shared hosts (VMs, CI runners) drift in speed by tens of percent over
// minutes; the scaling keeps that drift out of comparisons between runs
// taken at different times.
func (r repStats) norm(d time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refCalibration) / float64(r.calib))
}

// calibrate times a fixed piece of work that depends on nothing in the
// repository, shaped like the simulator's own host work: integer
// arithmetic, goroutine hand-offs over unbuffered channels (the way
// sim.Proc parks and resumes), and page-sized allocation and copying.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 1_500_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	for i := 0; i < 5000; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	src := make([]byte, 4096)
	pages := make([][]byte, 1024)
	for i := range pages {
		pages[i] = make([]byte, 4096)
		copy(pages[i], src)
	}
	d := time.Since(t0)
	runtime.KeepAlive(x)
	runtime.KeepAlive(pages)
	return d
}

// catch runs fn and reports a panic as an error: a deadlocked or crashed
// simulation fails its rep instead of the benchmark.
func catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// layerCounts reads every layer's counters after a rep.
func layerCounts(cl *cluster.Cluster, o *outcome, windows int) map[string]float64 {
	c := map[string]float64{
		"sim.events":  float64(cl.EventsFired()),
		"sim.sim_ms":  float64(cl.Now()) / 1e6,
		"sim.windows": float64(windows),
	}
	for _, p := range cl.Processes() {
		ms := p.Manager().Stats()
		c["core.pin_ops"] += float64(ms.PinOps)
		c["core.pages_pinned"] += float64(ms.PagesPinned)
		c["core.repins"] += float64(ms.Repins)
		c["core.pin_failures"] += float64(ms.PinFailures)
		c["core.invalidate_hits"] += float64(ms.InvalidateHits)
		cs := p.Cache().Stats()
		c["core.cache_lookups"] += float64(cs.Lookups())
		c["core.cache_hits"] += float64(cs.Hits + cs.SubrangeHits)
		c["core.cache_invalidations"] += float64(cs.Invalidations)
		c["core.cache_evictions"] += float64(cs.Evictions)
		c["vm.faults"] += float64(p.AS.Faults())
		c["vm.cow_breaks"] += float64(p.AS.COWBreaks())
		c["vm.swap_ins"] += float64(p.AS.SwapIns())
		for r := vm.InvalidateUnmap; r <= vm.InvalidateProtect; r++ {
			c["vm.invalidations"] += float64(p.AS.Notifications(r))
		}
	}
	for _, n := range cl.Nodes {
		rs := n.Phys.ReclaimStats()
		c["vm.pgscan"] += float64(rs.PgScan)
		c["vm.pgsteal"] += float64(rs.PgSteal)
		c["vm.direct_stalls"] += float64(rs.DirectStalls)
		c["ethernet.tx_frames"] += float64(n.NIC.TxFrames())
		c["ethernet.tx_mb"] += float64(n.NIC.TxBytes()) / 1e6
		c["ethernet.dropped"] += float64(n.NIC.Dropped())
		for i := 0; i < n.Machine.NumCores(); i++ {
			core := n.Machine.Core(i)
			c["cpu.bh_busy_ms"] += float64(core.BusyTime(cpu.BottomHalf)) / 1e6
			c["cpu.kernel_busy_ms"] += float64(core.BusyTime(cpu.Kernel)) / 1e6
			c["cpu.user_busy_ms"] += float64(core.BusyTime(cpu.User)) / 1e6
		}
	}
	st := cl.Stats()
	c["omx.frames_rx"] = float64(st.FramesRx)
	c["omx.pull_replies"] = float64(st.PullRepliesRx)
	c["omx.overlap_misses"] = float64(st.OverlapMissSender + st.OverlapMissReceiver)
	c["omx.rereqs"] = float64(st.ReRequests)
	c["omx.retransmits"] = float64(st.Retransmits)
	c["omx.req_aborts"] = float64(st.ReqAborts)
	c["kv.issued"] = float64(o.kv.issued)
	c["kv.ok"] = float64(o.kv.ok)
	c["kv.rejected"] = float64(o.kv.rejected)
	c["kv.errors"] = float64(o.kv.errors)
	c["kv.failovers"] = float64(o.kv.failovers)
	return c
}

// runData is everything one workload's run measured.
type runData struct {
	w      workload
	warm   repStats
	liveMB float64
	// reps are the timed untraced reps in order; the first w.detReps of
	// them are the deterministic set.
	reps   []repStats
	traced []repStats
	// selfMS is CPU ms per traced rep by profile bucket; cells holds the
	// layer cells' ns per op. Both stay empty in untraced runs.
	selfMS map[string]float64
	cells  map[string]float64
	spans  *spanLog
}

// measure runs one workload: an untimed warm-up rep, then timed reps for
// seconds and at least the deterministic set. A traced run splits the
// time between untraced reps and the same reps again under the CPU
// profiler and the span log, then times the layer cells.
func measure(w workload, seed int64, seconds float64, traced bool) (*runData, error) {
	d := &runData{w: w}
	d.warm = runRep(w, seed, nil, &d.liveMB)
	budget := seconds
	if traced {
		budget /= 2
	}
	d.reps = repsFor(w, seed, budget, w.detReps, nil)
	if !traced {
		return d, nil
	}
	d.spans = newSpanLog()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	d.traced = repsFor(w, seed, budget, 1, d.spans)
	pprof.StopCPUProfile()
	folded, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	d.selfMS = make(map[string]float64, len(folded))
	for b, v := range folded {
		d.selfMS[b] = v / float64(len(d.traced))
	}
	d.cells = runCells(w.cell, d.spans)
	return d, nil
}

// repsFor runs reps until budget seconds have passed and at least minReps
// ran. Rep i uses seed base+i%detReps.
func repsFor(w workload, base int64, budget float64, minReps int, spans *spanLog) []repStats {
	var out []repStats
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < budget; i++ {
		seed := base + int64(i%w.detReps)
		spans.beginRep(i, seed)
		out = append(out, runRep(w, seed, spans, nil))
	}
	return out
}
