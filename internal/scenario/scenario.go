// Package scenario turns experiments into data. A Scenario declares a
// cluster shape, a matrix of pinning-policy cases, an optional message-size
// sweep, a per-rank workload, fault-injection events at simulated times,
// and assertions over the collected statistics; the Runner builds one
// cluster per (case, size) cell, schedules the faults, drives the
// simulation, and emits a structured report.Result. The package-level
// registry is what the omxsim CLI lists and runs — adding a workload is a
// table entry, not a new binary.
package scenario

import (
	"fmt"
	"sort"
	"sync"

	"omxsim/internal/chaos"
	"omxsim/internal/cluster"
	"omxsim/internal/ethernet"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/report"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// Options are the per-invocation knobs the CLI exposes.
type Options struct {
	// Seed drives the deterministic simulation (0 = 1, the default seed).
	Seed int64
	// Policy restricts the case matrix to cases whose label or pin-policy
	// name matches ("" = run every case).
	Policy string
	// Quick selects the reduced size schedule (QuickSizes); workloads
	// that scale their own rounds or classes read it through
	// CaseRun.Quick. It never changes the case matrix.
	Quick bool
	// Shards runs every cell's cluster on that many engine shards (0
	// means 1; results are the same at every count).
	Shards int
	// ChaosSeed reseeds the chaos plan independently of the simulation
	// seed (0 = derive from Seed), so the same workload can face
	// different fault schedules.
	ChaosSeed int64
}

// Case is one cell of a scenario's pin-policy matrix.
type Case struct {
	// Label names the case in tables and -policy filters.
	Label string
	// OMX is the per-endpoint Open-MX configuration for this case.
	OMX omx.Config
	// Params carries free-form case parameters the workload can branch on
	// (e.g. blocking vs overlap-aware application patterns).
	Params map[string]string
	// Tweak, when non-nil, mutates the cluster config for this case
	// (AppsOnRxCore, per-rank EndpointConfig, link overrides, ...).
	Tweak func(*cluster.Config)
}

// FaultKind enumerates the built-in fault injectors.
type FaultKind int

const (
	// FaultFree munmaps a workload-registered buffer: the MMU notifier
	// unpins any overlapping region mid-communication (paper §2.1's
	// "free may unmap the buffer").
	FaultFree FaultKind = iota
	// FaultFork forks the target rank's address space copy-on-write, the
	// paper's other invalidation source. Pinned pages are copied eagerly
	// (as Linux does for elevated GUP counts), so only unpinned pages of
	// declared regions see COW notifications.
	FaultFork
	// FaultSwapOut pushes a registered buffer's unpinned pages to swap,
	// firing swap notifiers (madvise/reclaim-style pressure).
	FaultSwapOut
	// FaultFlood saturates every node's interrupt core with synthetic
	// bottom-half work for a window — the §4.3 overload generator.
	FaultFlood
	// FaultMProtect write-protects a registered buffer (mprotect to
	// read-only): the notifier fires over the whole range — pinned pages
	// included, since a device translation that assumed write access is
	// now wrong — so the driver unpins, while the mapping (and any cached
	// declaration over it) stays intact. The next use repins.
	FaultMProtect
	// FaultCrash takes Node dark for the For window (NIC down, pins
	// released, in-flight requests abort with omx.ErrPeerDead), then
	// restarts it.
	FaultCrash
	// FaultLinkDegrade applies the Degrade knobs to Node's NIC for the
	// For window.
	FaultLinkDegrade
	// FaultPartition drops every frame to and from Node for the For
	// window without crashing it.
	FaultPartition
	// FaultBudgetShrink lowers Node's physical-frame budget to Frames
	// for the For window.
	FaultBudgetShrink
)

// String names the fault kind for notes and tables.
func (k FaultKind) String() string {
	switch k {
	case FaultFree:
		return "free"
	case FaultFork:
		return "fork"
	case FaultSwapOut:
		return "swapout"
	case FaultFlood:
		return "flood"
	case FaultMProtect:
		return "mprotect"
	case FaultCrash:
		return "crash"
	case FaultLinkDegrade:
		return "link-degrade"
	case FaultPartition:
		return "partition"
	case FaultBudgetShrink:
		return "budget-shrink"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one injected event at a simulated time. Buffer-targeted faults
// wait (polling the registry) until the workload has registered the named
// buffer, so declaration order does not matter, or until the target rank
// has returned without registering it.
type Fault struct {
	// At is the injection time, measured from simulation start.
	At sim.Duration
	// Kind selects the injector.
	Kind FaultKind
	// Rank is the target rank for Free/Fork/SwapOut.
	Rank int
	// Buffer names the workload-registered buffer for Free/SwapOut.
	Buffer string
	// Util is the bottom-half utilization for Flood (0..1).
	Util float64
	// For bounds a flood window; 0 floods until the run ends (or the
	// runner's hard cap when the scenario has no budget). For the
	// node-class faults it is the outage/degradation window before the
	// matching restore fires.
	For sim.Duration
	// Node is the target host for Crash/LinkDegrade/Partition/BudgetShrink.
	Node int
	// Degrade carries the LinkDegrade knobs.
	Degrade ethernet.Degrade
	// Frames is the BudgetShrink target frame budget.
	Frames int
}

// Workload runs on every rank of the cluster; it records metrics and
// registers fault-target buffers through the CaseRun.
type Workload func(c *mpi.Comm, cr *CaseRun)

// Scenario is one declaratively-described experiment.
type Scenario struct {
	// Name is the registry key (omxsim run <name>).
	Name string
	// Description is one line for omxsim list and report headers.
	Description string
	// Source records where the scenario came from (SourceBuiltinGo,
	// SourceBuiltinSpec, SourceFile). Register defaults it to
	// SourceBuiltinGo; the spec loader stamps the other two.
	Source string
	// Cluster is the base cluster shape; the runner fills OMX and Seed per
	// case and applies Case.Tweak.
	Cluster cluster.Config
	// Cases is the pin-policy matrix (nil = one default on-demand+cache
	// case).
	Cases []Case
	// Sizes is an optional message-size sweep: the workload runs once per
	// (case, size) in a fresh cluster, reading the size from the CaseRun.
	Sizes []int
	// QuickSizes replaces Sizes under Options.Quick (nil = keep Sizes).
	QuickSizes []int
	// Workload is the per-rank body every cell runs.
	Workload Workload
	// Faults are injected into every case's run.
	Faults []Fault
	// Chaos, when set, compiles into a seeded fault schedule per cell
	// (the deterministic chaos engine): node crashes, link degradation,
	// partitions, budget shrinks, drawn from the profile's arrival
	// distributions and armed on each target node's own shard engine.
	Chaos *chaos.Profile
	// Budget stops the simulation after this much simulated time even if
	// ranks are still blocked (saturation scenarios); 0 runs to
	// completion.
	Budget sim.Duration
	// Metric names the primary workload metric; with a size sweep the
	// runner renders the size × case matrix table from it.
	Metric string
	// Assertions are evaluated over the finished Run.
	Assertions []Assertion
	// Report, when non-nil, runs after every cell has finished but before
	// the automatic tables are built: the hook folds per-rank stashed
	// state (e.g. kv latency histograms) or cross-cell comparisons (the
	// paper's Table 2 improvements) into case metrics and custom tables.
	// Metrics it sets are visible to Assertions.
	Report func(run *Run)
}

// Run is the in-flight state of one scenario invocation: every case cell
// plus the report being assembled.
type Run struct {
	Scenario *Scenario
	Opts     Options
	Result   *report.Result
	Cases    []*CaseRun
}

// CaseRun is one (case, size) cell: the live cluster while running, and
// the collected measurements afterwards.
type CaseRun struct {
	Case Case
	// Size is the sweep point (0 when the scenario has no size sweep).
	Size int
	// Seed is the simulation seed the cell ran with (the workload derives
	// per-rank RNG streams from it).
	Seed int64
	// Cluster is the cell's cluster: live while the workload runs, its
	// endpoints closed once the runner has collected the statistics.
	Cluster *cluster.Cluster
	// PolicyName labels the pinning policy in reports.
	PolicyName string
	// Metrics holds workload measurements plus the runner's automatic
	// "stats."-prefixed counters.
	Metrics map[string]float64
	// Completed is false when the budget expired with ranks still
	// blocked.
	Completed bool
	// Quick mirrors Options.Quick for workloads that scale their own
	// round counts, size schedules or problem classes (spec workloads
	// with quick_* overrides, the paper's Table 2 and §4.3 runs). It is
	// not serialized, so it cannot perturb the report bytes.
	Quick bool
	// Notes records fault outcomes and anomalies.
	Notes []string

	// mu guards Metrics, Notes, buffers, and stash: in a sharded run, rank
	// bodies and fault injectors touch the case record from different
	// shard goroutines. (The values written are still deterministic —
	// the lock only makes the map accesses safe, it is not ordering
	// anything.)
	mu      sync.Mutex
	buffers map[string]bufRef
	stash   map[string]any
	// faultNotes keys the Notes fault injectors wrote, in the order they
	// were written (see noteFault).
	faultNotes []faultNote

	// chaosRecs holds one recorder per node while a chaos-profile cell
	// runs (each touched only by its node's engine); chaosSeries is the
	// merged stress report collected after the run.
	chaosRecs   []*chaos.Recorder
	chaosSeries *report.ChaosSeries
}

type bufRef struct {
	addr vm.Addr
	size int
}

// faultNote keys a note a fault injector wrote: the simulated time the
// injector fired, how many times it had polled for its target buffer by
// then, and the fault's position in the scenario. A single engine fires
// same-time injections in exactly that order: an injector that polled
// fewer times was armed for this instant earlier, and at equal counts the
// faults were armed in list order. Shards fire them in any order, so the
// notes are put back in key order after the run.
type faultNote struct {
	at           sim.Time
	polls, fault int
	pos          int // index of the note in Notes
	msg          string
}

// Metric records a measurement (rank 0 usually writes these).
func (cr *CaseRun) Metric(name string, v float64) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.Metrics[name] = v
}

// AddMetric accumulates delta into a measurement. Unlike Metric it is
// safe for every rank to call: integral deltas sum exactly in any order,
// so the total stays deterministic even when ranks run on different
// shards (the chaos workloads count per-rank operation outcomes this
// way).
func (cr *CaseRun) AddMetric(name string, delta float64) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.Metrics[name] += delta
}

// Param reads a case parameter ("" when absent).
func (cr *CaseRun) Param(key string) string { return cr.Case.Params[key] }

// Note appends a free-form remark to the case record.
func (cr *CaseRun) Note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.Notes = append(cr.Notes, msg)
}

// noteFault appends a fault injector's note under its key.
func (cr *CaseRun) noteFault(at sim.Time, polls, fault int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.faultNotes = append(cr.faultNotes, faultNote{at: at, polls: polls, fault: fault, pos: len(cr.Notes), msg: msg})
	cr.Notes = append(cr.Notes, msg)
}

// orderFaultNotes rewrites the slots the fault notes occupy among the notes
// in key order, so a report is byte-identical whatever the shard count.
func (cr *CaseRun) orderFaultNotes() {
	sorted := append([]faultNote(nil), cr.faultNotes...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.polls != b.polls {
			return a.polls < b.polls
		}
		return a.fault < b.fault
	})
	for i, n := range sorted {
		cr.Notes[cr.faultNotes[i].pos] = n.msg
	}
}

// RegisterBuffer publishes a rank's buffer under a name so fault events can
// target it.
func (cr *CaseRun) RegisterBuffer(rank int, name string, addr vm.Addr, size int) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.buffers[bufKey(rank, name)] = bufRef{addr: addr, size: size}
}

// Buffer looks up a registered buffer.
func (cr *CaseRun) Buffer(rank int, name string) (vm.Addr, int, bool) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	b, ok := cr.buffers[bufKey(rank, name)]
	return b.addr, b.size, ok
}

func bufKey(rank int, name string) string { return fmt.Sprintf("%d/%s", rank, name) }

// Stash parks an arbitrary per-cell value (e.g. a rank's latency
// histograms) under a key for the scenario's Report hook to collect after
// the run. Ranks on different shards may stash concurrently; readers must
// wait until the cell has finished (the Report hook runs after Run/RunFor
// returns, so it always may).
func (cr *CaseRun) Stash(key string, v any) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if cr.stash == nil {
		cr.stash = make(map[string]any)
	}
	cr.stash[key] = v
}

// Stashed reads a value parked by Stash (nil when absent).
func (cr *CaseRun) Stashed(key string) any {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.stash[key]
}

// id labels the cell in assertion failure details.
func (cr *CaseRun) id() string {
	if cr.Size > 0 {
		return fmt.Sprintf("%s/%s", cr.Case.Label, report.Bytes(cr.Size))
	}
	return cr.Case.Label
}
