package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"omxsim/internal/chaos"
	"omxsim/internal/cluster"
	"omxsim/internal/cpu"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/report"
	"omxsim/internal/sim"
)

// floodCap bounds a flood fault with For == 0 in a scenario without a
// budget, so the event queue is guaranteed to drain.
const floodCap = sim.Second

// faultRetry is the poll interval while a buffer-targeted fault waits for
// the workload to register its target.
const faultRetry = 50 * sim.Microsecond

// Run executes the scenario and returns its structured result. The same
// (scenario, Options) pair always produces an identical Result: the
// simulation is deterministic and the report carries no wall-clock state.
func (s *Scenario) Run(opts Options) (*report.Result, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	res := &report.Result{Scenario: s.Name, Description: s.Description, Seed: opts.Seed}
	run := &Run{Scenario: s, Opts: opts, Result: res}

	if err := s.runDeclarative(run); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}

	for _, cr := range run.Cases {
		res.Cases = append(res.Cases, report.Case{
			Label:   cr.id(),
			Size:    cr.Size,
			Policy:  cr.PolicyName,
			Metrics: cr.Metrics,
			Notes:   cr.Notes,
			Chaos:   cr.chaosSeries,
		})
	}
	// The teardown invariant is checked on every scenario, not just those
	// that opt in: a cell whose endpoints closed with pages still pinned
	// (stats.pinned_after_close, set by runCell) must fail the run. It
	// runs last so the scenario's own assertions keep their positions.
	assertions := append(append([]Assertion{}, s.Assertions...), noTeardownLeak())
	for _, a := range assertions {
		ok, detail := a.Check(run)
		res.Assertions = append(res.Assertions, report.Assertion{Name: a.Name, Passed: ok, Detail: detail})
	}
	res.Passed = !res.Failed()
	return res, nil
}

// defaultCase is the single cell scenarios without a Cases matrix run
// (PolicyLabels advertises its label through `omxsim list`).
func defaultCase() Case {
	return Case{Label: "cache", OMX: omx.DefaultConfig(policy.OnDemand, true)}
}

// cases resolves the case matrix after the -policy filter.
func (s *Scenario) cases(opts Options) ([]Case, error) {
	cases := s.Cases
	if len(cases) == 0 {
		cases = []Case{defaultCase()}
	}
	if opts.Policy == "" {
		return cases, nil
	}
	var kept []Case
	var labels []string
	for _, c := range cases {
		labels = append(labels, c.Label)
		if strings.EqualFold(c.Label, opts.Policy) || strings.EqualFold(c.OMX.PolicyLabel(), opts.Policy) {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("no case matches -policy %q (cases: %s)", opts.Policy, strings.Join(labels, ", "))
	}
	return kept, nil
}

// sizeSchedule resolves the sweep points (a single zero-size point when the
// scenario has no sweep).
func (s *Scenario) sizeSchedule(opts Options) []int {
	sizes := s.Sizes
	if opts.Quick && len(s.QuickSizes) > 0 {
		sizes = s.QuickSizes
	}
	if len(sizes) == 0 {
		return []int{0}
	}
	return sizes
}

func (s *Scenario) runDeclarative(run *Run) error {
	cases, err := s.cases(run.Opts)
	if err != nil {
		return err
	}
	sizes := s.sizeSchedule(run.Opts)
	if len(s.Sizes) > 0 {
		run.Result.Param("sizes", sizeList(sizes))
	}
	for _, c := range cases {
		for _, size := range sizes {
			cr, err := s.runCell(run, c, size)
			if err != nil {
				return err
			}
			run.Cases = append(run.Cases, cr)
		}
	}
	if s.Report != nil {
		s.Report(run)
	}
	s.buildTables(run, cases, sizes)
	return nil
}

// runCell builds one cluster, injects the faults, drives the workload, and
// collects the statistics.
func (s *Scenario) runCell(run *Run, c Case, size int) (*CaseRun, error) {
	cr := &CaseRun{
		Case:       c,
		Size:       size,
		PolicyName: c.OMX.PolicyLabel(),
		Quick:      run.Opts.Quick,
		Metrics:    make(map[string]float64),
		buffers:    make(map[string]bufRef),
	}
	cfg := s.Cluster
	cfg.OMX = c.OMX
	cfg.Seed = run.Opts.Seed
	cr.Seed = run.Opts.Seed
	cfg.Shards = run.Opts.Shards
	if c.Tweak != nil {
		c.Tweak(&cfg)
	}
	// Chaos recorders and the compiled fault schedule arm first, so the
	// one-shot injectors below can record into the same stress report.
	if s.chaosEnabled() {
		seed := run.Opts.ChaosSeed
		if seed == 0 {
			seed = run.Opts.Seed
		}
		profile := s.Chaos
		cfg.OnBuild = append(cfg.OnBuild, func(cl *cluster.Cluster) {
			armChaos(cl, cr, profile, seed)
		})
	}
	// Fault events arm through the cluster's OnBuild hook, composing with
	// any hooks the scenario or case tweak installed.
	cfg.OnBuild = append(cfg.OnBuild, func(cl *cluster.Cluster) {
		for i, f := range s.Faults {
			scheduleFault(cl, cr, i, f, s.Budget)
		}
	})
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("case %s: %w", cr.id(), err)
	}
	cr.Cluster = cl
	body := func(mc *mpi.Comm) { s.Workload(mc, cr) }
	if s.Budget > 0 {
		cr.Completed = cl.RunFor(s.Budget, body)
	} else {
		cl.Run(body)
		cr.Completed = true
	}
	cr.orderFaultNotes()
	collectStats(cr)
	collectChaos(cr)
	// Tear the endpoints down: the policy contract says no backend may
	// leave pages pinned once its endpoints are gone. A leak here fails
	// the run through the implicit noTeardownLeak assertion.
	if leaked := cl.Close(); leaked != 0 {
		cr.Metric("stats.pinned_after_close", float64(leaked))
		cr.Note("TEARDOWN LEAK: %d pages still pinned after endpoint close", leaked)
	}
	return cr, nil
}

// noTeardownLeak is the implicit assertion Run applies to every
// scenario: endpoint teardown must drop every pin, in every cell.
func noTeardownLeak() Assertion {
	return EachCase("no pinned pages after teardown", func(cr *CaseRun) (bool, string) {
		if leaked := cr.Metrics["stats.pinned_after_close"]; leaked > 0 {
			return false, fmt.Sprintf("%g pages still pinned after endpoint close", leaked)
		}
		return true, ""
	})
}

// chaosEnabled reports whether the cell needs chaos recorders: a chaos
// profile, or any node-class one-shot fault.
func (s *Scenario) chaosEnabled() bool {
	if s.Chaos != nil {
		return true
	}
	for _, f := range s.Faults {
		switch f.Kind {
		case FaultCrash, FaultLinkDegrade, FaultPartition, FaultBudgetShrink:
			return true
		}
	}
	return false
}

// armChaos sets up the cell's chaos machinery at cluster-build time: one
// stress recorder per node, the abort and pin-churn hooks feeding them,
// and — when a profile is present — the compiled fault schedule. Every
// planned event arms as a foreground event on its target node's own
// engine, so chaos injection stays shard-local and the schedule is
// identical whatever the shard count.
func armChaos(cl *cluster.Cluster, cr *CaseRun, p *chaos.Profile, seed int64) {
	recs := make([]*chaos.Recorder, len(cl.Nodes))
	for i := range recs {
		recs[i] = chaos.NewRecorder(p.BucketInterval())
	}
	cr.chaosRecs = recs
	for _, n := range cl.Nodes {
		n := n
		rec := recs[n.ID]
		n.SetAbortHook(func(omx.ReqKind, error) { rec.Abort(n.Eng.Now()) })
	}
	for _, proc := range cl.Processes() {
		n := proc.Node()
		rec := recs[n.ID]
		proc.Manager().OnPinChurn = func(pages int, pinned bool) {
			rec.PinChurn(n.Eng.Now(), pages, pinned)
		}
	}
	for _, ev := range p.Plan(seed, len(cl.Nodes)) {
		ev := ev
		n := cl.Nodes[ev.Node]
		n.Eng.After(sim.Duration(ev.At), func() {
			chaos.Apply(n, ev, recs[ev.Node])
		})
	}
}

// collectChaos folds the per-node stress recorders into chaos metrics and
// the report's per-interval time series. Recorders merge in node order,
// so the series is deterministic across shard counts.
func collectChaos(cr *CaseRun) {
	if cr.chaosRecs == nil {
		return
	}
	series := &report.ChaosSeries{
		IntervalUS: float64(cr.chaosRecs[0].Interval()) / float64(sim.Microsecond),
		Intervals:  chaos.Merge(cr.chaosRecs),
	}
	t := series.Total()
	cr.Metric("stats.chaos_faults", float64(t.Faults))
	cr.Metric("stats.chaos_recoveries", float64(t.Recoveries))
	cr.Metric("stats.chaos_aborts", float64(t.Aborts))
	inflight := 0
	for _, n := range cr.Cluster.Nodes {
		inflight += n.InFlightRequests()
	}
	cr.Metric("stats.requests_inflight_end", float64(inflight))
	cr.chaosSeries = series
}

// scheduleNodeFault arms a one-shot node-class fault, the scenario's
// fault number fi. Like the planned chaos schedule, the event fires on the
// target node's own shard engine and records into that node's stress
// recorder.
func scheduleNodeFault(cl *cluster.Cluster, cr *CaseRun, fi int, f Fault) {
	if f.Node < 0 || f.Node >= len(cl.Nodes) {
		cl.Eng.After(f.At, func() {
			cr.noteFault(cl.Eng.Now(), 0, fi, "t=%v: %v fault: no node %d", cl.Eng.Now(), f.Kind, f.Node)
		})
		return
	}
	ev := chaos.Event{
		Node:            f.Node,
		Duration:        f.For,
		Frames:          f.Frames,
		ExtraLatency:    f.Degrade.ExtraLatency,
		BandwidthFactor: f.Degrade.BandwidthFactor,
		DropProb:        f.Degrade.DropProb,
	}
	switch f.Kind {
	case FaultCrash:
		ev.Class = chaos.NodeCrash
	case FaultLinkDegrade:
		ev.Class = chaos.LinkDegrade
	case FaultPartition:
		ev.Class = chaos.Partition
	case FaultBudgetShrink:
		ev.Class = chaos.BudgetShrink
	}
	n := cl.Nodes[f.Node]
	n.Eng.After(f.At, func() {
		chaos.Apply(n, ev, cr.chaosRecs[f.Node])
	})
}

// scheduleFault arms one fault event, the scenario's fault number fi.
// Every injector runs on the engine that owns its target node, so fault
// work stays shard-local in sharded runs: the flood arms per-node
// bottom-half generators on each node's own engine, and rank-targeted
// faults fire where the rank's address space lives.
func scheduleFault(cl *cluster.Cluster, cr *CaseRun, fi int, f Fault, budget sim.Duration) {
	switch f.Kind {
	case FaultCrash, FaultLinkDegrade, FaultPartition, FaultBudgetShrink:
		scheduleNodeFault(cl, cr, fi, f)
		return
	}
	if f.Kind == FaultFlood {
		window := f.For
		if window == 0 && budget == 0 {
			window = floodCap
		}
		// Node 0's injector writes the note on behalf of all of them.
		for _, n := range cl.Nodes {
			n := n
			eng := n.Eng
			eng.After(f.At, func() {
				stop := startFlood(eng, n.RxCore(), f.Util)
				if window > 0 {
					eng.After(window, stop)
				}
				if n.ID == 0 {
					cr.noteFault(eng.Now(), 0, fi, "t=%v: flood util=%.2f window=%v", eng.Now(), f.Util, window)
				}
			})
		}
		return
	}
	if f.Rank < 0 || f.Rank >= len(cl.Endpoints) {
		cl.Eng.After(f.At, func() {
			cr.noteFault(cl.Eng.Now(), 0, fi, "t=%v: %v fault: no rank %d", cl.Eng.Now(), f.Kind, f.Rank)
		})
		return
	}
	ep := cl.Endpoints[f.Rank]
	eng := ep.Node().Eng
	polls := 0 // times fire re-armed itself waiting for the target buffer
	note := func(format string, args ...any) {
		cr.noteFault(eng.Now(), polls, fi, format, args...)
	}
	var fire func()
	fire = func() {
		switch f.Kind {
		case FaultFork:
			if _, err := ep.AS.Fork(9000 + f.Rank); err != nil {
				note("t=%v: fork fault on rank %d failed: %v", eng.Now(), f.Rank, err)
				return
			}
			note("t=%v: forked rank %d address space (COW)", eng.Now(), f.Rank)
		case FaultFree, FaultSwapOut, FaultMProtect:
			addr, size, ok := cr.Buffer(f.Rank, f.Buffer)
			if !ok {
				// The workload has not registered the target yet; poll
				// until it does or the target rank returns.
				if !cl.World.Done(f.Rank) {
					polls++
					eng.After(faultRetry, fire)
				} else {
					note("t=%v: %v fault never fired: buffer %d/%s was never registered",
						eng.Now(), f.Kind, f.Rank, f.Buffer)
				}
				return
			}
			if f.Kind == FaultFree {
				if err := ep.Free(addr); err != nil {
					note("t=%v: free fault on %d/%s failed: %v", eng.Now(), f.Rank, f.Buffer, err)
					return
				}
				note("t=%v: freed %d/%s (%s)", eng.Now(), f.Rank, f.Buffer, report.Bytes(size))
			} else if f.Kind == FaultMProtect {
				if err := ep.AS.MProtect(addr, size, false); err != nil {
					note("t=%v: mprotect fault on %d/%s failed: %v", eng.Now(), f.Rank, f.Buffer, err)
					return
				}
				note("t=%v: write-protected %d/%s (%s)", eng.Now(), f.Rank, f.Buffer, report.Bytes(size))
			} else {
				n, err := ep.AS.SwapOut(addr, size)
				if err != nil {
					note("t=%v: swapout fault on %d/%s failed: %v", eng.Now(), f.Rank, f.Buffer, err)
					return
				}
				note("t=%v: swapped out %d pages of %d/%s", eng.Now(), n, f.Rank, f.Buffer)
			}
		}
	}
	eng.After(f.At, fire)
}

// startFlood submits synthetic bottom-half work on c at the target
// utilization, modelling a core saturated by incoming-network interrupt
// processing (10G of small packets, paper §4.3), and returns a stop
// function. The flood fault and the §4.3 cells arm it on each node's own
// engine.
func startFlood(eng *sim.Engine, c *cpu.Core, utilization float64) func() {
	const quantum = 10 * sim.Microsecond
	stopped := false
	var pending sim.Event
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		c.Submit(cpu.BottomHalf, sim.Duration(float64(quantum)*utilization), nil)
		pending = eng.After(quantum, tick)
	}
	eng.After(0, tick)
	return func() {
		stopped = true
		// Cancel the armed timer so a stopped flood leaves no pending event
		// behind (Cancel removes it from the engine's heap).
		pending.Cancel()
	}
}

// collectStats folds the cell's counters into "stats."-prefixed metrics.
// Each layer names what it reports where the count is kept: every field
// of omx.NodeStats, vm.ReclaimStats, core.Stats and core.CacheStats that
// carries a `stat:"name"` tag is summed into stats.<name>, node counters
// in node order, then each process's manager and cache (endpoints sharing
// a process share both, so each is folded once). The six values below the
// fold are not counters of those structs.
func collectStats(cr *CaseRun) {
	cl := cr.Cluster
	sums := make(map[string]uint64)
	swappedEnd, peakOccupied := 0, 0
	for _, n := range cl.Nodes {
		addStats(sums, n.Stats())
		addStats(sums, n.Phys.ReclaimStats())
		swappedEnd += n.Phys.SwappedPages()
		peakOccupied += n.Phys.PeakOccupied()
	}
	var swapIns uint64
	pinnedEnd := 0
	for _, p := range cl.Processes() {
		addStats(sums, p.Manager().Stats())
		addStats(sums, p.Cache().Stats())
		swapIns += p.AS.SwapIns()
		pinnedEnd += p.Manager().PinnedPages()
	}
	for name, v := range sums {
		cr.Metric("stats."+name, float64(v))
	}
	cr.Metric("stats.elapsed_us", cl.Now().Micros())
	// Simulator-speed trajectory: events dispatched for this cell (divide by
	// host wall clock to get events/sec; see PERFORMANCE.md). Foreground
	// only: daemon ticks (kswapd) run up to shard-layout-dependent window
	// boundaries and would break report invariance across shard counts.
	cr.Metric("stats.events_fired", float64(cl.ForegroundEventsFired()))
	cr.Metric("stats.pinned_pages_end", float64(pinnedEnd))
	cr.Metric("stats.swapped_pages_end", float64(swappedEnd))
	cr.Metric("stats.peak_occupied_pages", float64(peakOccupied))
	cr.Metric("stats.swap_ins", float64(swapIns))
}

// addStats adds each `stat`-tagged integer field of the struct s into
// sums under its tag.
func addStats(sums map[string]uint64, s any) {
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Tag.Get("stat")
		if name == "" {
			continue
		}
		switch f := v.Field(i); {
		case f.CanUint():
			sums[name] += f.Uint()
		case f.CanInt():
			sums[name] += uint64(f.Int())
		default:
			panic(fmt.Sprintf("scenario: stat %q tags a %s field", name, f.Kind()))
		}
	}
}

// buildTables renders the automatic tables: the size × case matrix of the
// primary metric for sweep scenarios, and a per-case summary of every
// workload-recorded (non-"stats.") metric.
func (s *Scenario) buildTables(run *Run, cases []Case, sizes []int) {
	cell := func(label string, size int) *CaseRun {
		for _, cr := range run.Cases {
			if cr.Case.Label == label && cr.Size == size {
				return cr
			}
		}
		return nil
	}
	if s.Metric != "" && len(sizes) > 1 {
		t := report.Table{
			Title:   fmt.Sprintf("%s by message size", s.Metric),
			Columns: append([]string{"size"}, caseLabels(cases)...),
		}
		for _, size := range sizes {
			row := []string{report.Bytes(size)}
			for _, c := range cases {
				if cr := cell(c.Label, size); cr != nil {
					row = append(row, report.F(cr.Metrics[s.Metric], 1))
				} else {
					row = append(row, "-")
				}
			}
			t.Rows = append(t.Rows, row)
		}
		run.Result.AddTable(t)
		return
	}

	names := workloadMetricNames(run.Cases)
	if len(names) == 0 {
		return
	}
	// Cells sharing a label (Table 2's configurations of one application)
	// are told apart by their policy.
	shared := make(map[string]int, len(run.Cases))
	for _, cr := range run.Cases {
		shared[cr.id()]++
	}
	t := report.Table{Title: "results", Columns: append([]string{"case"}, names...)}
	for _, cr := range run.Cases {
		row := []string{cr.id()}
		if shared[cr.id()] > 1 {
			row[0] += " (" + cr.PolicyName + ")"
		}
		for _, n := range names {
			if v, ok := cr.Metrics[n]; ok {
				row = append(row, report.F(v, 1))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	run.Result.AddTable(t)
}

// workloadMetricNames is the sorted union of non-"stats." metric names.
// "kv."-prefixed latency metrics are excluded too: the kvserve Report hook
// renders them in its own latency table, which would otherwise be
// duplicated (transposed and unreadable) in the automatic results table.
func workloadMetricNames(cases []*CaseRun) []string {
	seen := make(map[string]bool)
	for _, cr := range cases {
		for n := range cr.Metrics {
			if !strings.HasPrefix(n, "stats.") && !strings.HasPrefix(n, "kv.") {
				seen[n] = true
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func caseLabels(cases []Case) []string {
	out := make([]string, len(cases))
	for i, c := range cases {
		out[i] = c.Label
	}
	return out
}

func sizeList(sizes []int) string {
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		parts[i] = report.Bytes(s)
	}
	return strings.Join(parts, ",")
}
