// Package cluster assembles complete simulated clusters: hosts (cores,
// memory, NIC, I/OAT), an Ethernet fabric, Open-MX endpoints, and an MPI
// world — one call sets up everything an experiment needs.
package cluster

import (
	"cmp"
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/sim"
)

// NodeGroup is one homogeneous slice of a heterogeneous cluster: Nodes
// hosts sharing a rank count and memory budget. Groups lay out in
// declaration order, so node indices (and with them block rank
// distribution and shard assignment) are deterministic.
type NodeGroup struct {
	// Name labels the group in specs and diagnostics.
	Name string
	// Nodes is the group's host count.
	Nodes int
	// RanksPerNode overrides Config.RanksPerNode for this group
	// (0 = inherit).
	RanksPerNode int
	// EndpointsPerNode overrides Config.EndpointsPerNode for this group
	// (0 = inherit): how many OMX endpoints each rank-role serves through.
	EndpointsPerNode int
	// NICQueues overrides Config.NICQueues for this group (0 = inherit).
	NICQueues int
	// Mem overrides Config.Mem for this group's hosts. The zero value
	// (Frames 0) means unbounded memory, not "inherit" — a fleet's
	// compute tier is typically unbounded while its storage tier has a
	// frame budget.
	Mem omx.MemConfig
}

// Config describes a cluster.
type Config struct {
	// Nodes is the host count (default 2, the paper's testbed). Ignored
	// when Groups is set: the group sizes then determine it.
	Nodes int
	// RanksPerNode is how many MPI ranks (endpoints) each host runs
	// (default 1). Ranks are block-distributed: ranks 0..k-1 on node 0.
	RanksPerNode int
	// EndpointsPerNode opens that many OMX endpoints per rank-role
	// (default 1): the primary carries the rank's MPI traffic, the rest
	// attach as aux serving lanes (Endpoint.Aux) sharing the rank's
	// process — multi-endpoint servers for fleet-scale kv serving.
	EndpointsPerNode int
	// NICQueues is the per-node NIC tx/rx queue count (default 1). Flows
	// steer across queues via the fabric's seeded RSS function; each rx
	// queue's bottom halves land on their own core.
	NICQueues int
	// RanksPerProc groups a node's consecutive ranks into shared
	// processes (default 1: one process per rank). Ranks in one process
	// share an address space, allocator, driver region manager, and —
	// importantly — the user-space region cache, so a buffer declared by
	// one rank is a cache hit for its process peers. The process adopts
	// the configuration of its first rank; EndpointConfig is consulted
	// once per process.
	RanksPerProc int
	// Spec selects the host CPU (default cpu.XeonE5460, the paper's main
	// machine).
	Spec cpu.Spec
	// OMX is the per-endpoint Open-MX configuration (pinning policy, cache,
	// I/OAT, ...).
	OMX omx.Config
	// Groups, when non-empty, makes the cluster heterogeneous: nodes lay
	// out group by group, each group with its own ranks-per-node and
	// memory budget. Nodes is derived (the sum of group sizes) and the
	// group's Mem replaces Config.Mem wholesale for its hosts.
	Groups []NodeGroup
	// Mem is the per-node physical-memory pressure model: a frame budget
	// with kswapd watermarks. With Mem.Frames > 0 every node runs a
	// kswapd and allocations past capacity stall in direct reclaim, so
	// swap pressure emerges from the allocator (the pressure-* scenario
	// family) instead of the fault injector.
	Mem omx.MemConfig
	// Shards splits the cluster across that many engine shards (clamped
	// to [1, Nodes]; 0, the default, means 1), with each node group
	// block-distributed over all of them and the fabric's minimum frame
	// latency (ethernet.Fabric.MinLatency: tx overhead, PropDelay and the
	// interrupt delay) as the conservative lookahead window. Every count
	// produces the same results; two or more run the shards in parallel.
	Shards int
	// AppsOnRxCore forces every rank onto the interrupt core, reproducing
	// the paper's §4.3 overload scenario (application pinning work starved
	// by bottom halves).
	AppsOnRxCore bool
	// Link overrides the fabric parameters (default: 10G, 500ns). Its
	// PropDelay must be positive, and it is part of the engine lookahead.
	Link *ethernet.LinkConfig
	// Seed makes the run deterministic (default 1).
	Seed int64
	// EndpointConfig, when non-nil, customises the OMX configuration per
	// endpoint: it receives the node index, the global rank, and the base
	// config (Config.OMX) and returns the config to open that endpoint
	// with. Scenarios use it for heterogeneous pin-policy matrices (e.g.
	// one rank overlapped, the peer pin-each-comm).
	EndpointConfig func(node, rank int, base omx.Config) omx.Config
	// OnBuild hooks run after the cluster is fully wired but before any
	// workload starts. Scenario construction uses them to attach tracing
	// or schedule fault-injection events against the finished topology.
	OnBuild []func(*Cluster)
}

// appCoreBase is the first core used for application ranks: rank i on a
// node runs on core appCoreBase+i, keeping apps off the interrupt core
// (core 0).
const appCoreBase = 1

// loopbackBytesPerSec bounds intra-node messaging (4 GB/s).
const loopbackBytesPerSec = 4e9

// Cluster is a fully wired simulation instance.
type Cluster struct {
	// Eng is the engine of shard 0, the only one in a one-shard build.
	// Code that may run sharded addresses engines per node
	// (Nodes[i].Eng); Eng schedules cluster-wide setup such as fault
	// injection before the run starts.
	Eng       *sim.Engine
	Fabric    *ethernet.Fabric
	Nodes     []*omx.Node
	Endpoints []*omx.Endpoint // indexed by rank, block-distributed
	World     *mpi.World
	// Set coordinates the engine shards and drives every run.
	Set *sim.ShardSet

	// bounded records that the last drive was budget-limited, so Now()
	// reports the deadline the clocks were advanced to rather than the
	// last foreground event.
	bounded bool
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.RanksPerNode == 0 {
		cfg.RanksPerNode = 1
	}
	if cfg.EndpointsPerNode == 0 {
		cfg.EndpointsPerNode = 1
	}
	if cfg.NICQueues == 0 {
		cfg.NICQueues = 1
	}
	if cfg.RanksPerProc == 0 {
		cfg.RanksPerProc = 1
	}
	if cfg.Spec.Cores == 0 {
		cfg.Spec = cpu.XeonE5460
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// A uniform cluster is one group. Resolve each group's inherited
	// values once; the group sizes then determine the node count before
	// anything (the shard clamp included) reads it.
	groups := append([]NodeGroup(nil), cfg.Groups...)
	if len(groups) == 0 {
		groups = []NodeGroup{{Nodes: cfg.Nodes, Mem: cfg.Mem}}
	}
	cfg.Nodes = 0
	for i := range groups {
		g := &groups[i]
		if g.Nodes <= 0 {
			return nil, fmt.Errorf("cluster: group %q has %d nodes", g.Name, g.Nodes)
		}
		cfg.Nodes += g.Nodes
		g.RanksPerNode = cmp.Or(g.RanksPerNode, cfg.RanksPerNode)
		g.EndpointsPerNode = cmp.Or(g.EndpointsPerNode, cfg.EndpointsPerNode)
		g.NICQueues = cmp.Or(g.NICQueues, cfg.NICQueues)
	}
	link := ethernet.DefaultLinkConfig()
	if cfg.Link != nil {
		link = *cfg.Link
	}
	if link.PropDelay <= 0 {
		return nil, fmt.Errorf("cluster: the link PropDelay must be positive (got %v): no physical link delivers instantly", link.PropDelay)
	}
	// One engine per shard. Each group splits into one contiguous block of
	// near-equal size per shard, so every shard carries its share of
	// every tier, and a node's ranks share its shard. A group starts on
	// the shard after the previous group's last node: groups smaller than
	// the shard count spread out instead of piling onto shard 0, and a
	// one-group cluster puts node n on shard n*shards/Nodes.
	shards := min(max(cfg.Shards, 1), cfg.Nodes)
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngine(cfg.Seed)
	}
	shardOf := make([]int, 0, cfg.Nodes)
	next := 0
	for _, g := range groups {
		for k := range g.Nodes {
			shardOf = append(shardOf, (next+k*shards/g.Nodes)%shards)
		}
		next = (shardOf[len(shardOf)-1] + 1) % shards
	}
	fabric := ethernet.NewFabric(engines[0], link)
	fabric.Seed = cfg.Seed
	fabric.LoopbackBytesPerSec = loopbackBytesPerSec

	cl := &Cluster{Eng: engines[0], Fabric: fabric}
	// Nodes lay out group by group.
	n := 0
	for _, g := range groups {
		for k := 0; k < g.Nodes; k++ {
			if err := cl.addNode(&cfg, g, n, engines[shardOf[n]]); err != nil {
				return nil, err
			}
			n++
		}
	}
	// The shard set is built once every NIC has its rx delay, since the
	// fabric's minimum frame latency is its lookahead.
	set := sim.NewShardSet(fabric.MinLatency(), engines)
	cl.Set = set
	fabric.SetRouter(func(dst *ethernet.NIC, fr *ethernet.Frame, when, sendTime sim.Time, srcSeq uint64) {
		set.Post(sim.CrossEvent{
			When:     when,
			SendTime: sendTime,
			SrcShard: shardOf[fr.Src],
			DstShard: shardOf[fr.Dst],
			SrcNode:  fr.Src,
			DstNode:  fr.Dst,
			SrcSeq:   srcSeq,
			Fn:       func() { dst.Deliver(fr) },
		})
	})
	cl.World = mpi.NewWorld(cl.Endpoints)
	for _, hook := range cfg.OnBuild {
		hook(cl)
	}
	return cl, nil
}

// addNode builds node n of group g on eng, with its ranks' processes and
// endpoints. Ranks are numbered globally in build order.
func (cl *Cluster) addNode(cfg *Config, g NodeGroup, n int, eng *sim.Engine) error {
	node := omx.NewNode(eng, cl.Fabric, cfg.Spec, n)
	if g.NICQueues > 1 {
		node.ConfigureQueues(g.NICQueues)
	}
	node.ConfigureMemory(g.Mem)
	cl.Nodes = append(cl.Nodes, node)
	var proc *omx.Process
	for r := 0; r < g.RanksPerNode; r++ {
		rank := len(cl.Endpoints)
		coreIdx := (appCoreBase + r) % cfg.Spec.Cores
		if cfg.AppsOnRxCore {
			coreIdx = node.RxCore().ID()
		}
		if r%cfg.RanksPerProc == 0 {
			omxCfg := cfg.OMX
			if cfg.EndpointConfig != nil {
				omxCfg = cfg.EndpointConfig(n, rank, omxCfg)
			}
			var err error
			proc, err = node.NewProcess(r, coreIdx, omxCfg)
			if err != nil {
				return fmt.Errorf("cluster: node %d rank %d: %w", n, r, err)
			}
		}
		ep, err := node.OpenEndpointIn(proc, r, coreIdx)
		if err != nil {
			return fmt.Errorf("cluster: node %d rank %d: %w", n, r, err)
		}
		// Aux serving lanes: extra endpoints in the same process, with
		// ep ids past the node's rank range and cores fanned out past
		// the rank's own. EndpointConfig applies per process, so lanes
		// inherit the rank's configuration.
		for j := 1; j < g.EndpointsPerNode; j++ {
			auxID := g.RanksPerNode + r*(g.EndpointsPerNode-1) + (j - 1)
			auxCore := coreIdx
			if !cfg.AppsOnRxCore {
				auxCore = (appCoreBase + r + j) % cfg.Spec.Cores
			}
			aux, err := node.OpenEndpointIn(proc, auxID, auxCore)
			if err != nil {
				return fmt.Errorf("cluster: node %d rank %d lane %d: %w", n, r, j, err)
			}
			ep.AttachAux(aux)
		}
		cl.Endpoints = append(cl.Endpoints, ep)
	}
	return nil
}

// Processes returns the distinct processes backing the cluster's
// endpoints, in endpoint order — the unit to iterate for per-manager or
// per-cache accounting (endpoints sharing a process share both).
func (cl *Cluster) Processes() []*omx.Process {
	seen := make(map[*omx.Process]bool, len(cl.Endpoints))
	var out []*omx.Process
	for _, ep := range cl.Endpoints {
		if p := ep.Process(); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Close shuts every endpoint down (cancelling in-flight protocol timers,
// detaching MMU notifiers, dropping all pins) and returns the pages the
// drivers still report pinned afterwards plus any pin/unpin ledger
// imbalance. Today's teardown path unpins unconditionally, so a non-zero
// return means a regression — Manager.Close skipping a region, or the
// page accounting drifting from the pins actually held — which the
// scenario runner surfaces as a case note on every cell.
func (cl *Cluster) Close() int {
	for _, ep := range cl.Endpoints {
		for _, aux := range ep.Aux() {
			aux.Close()
		}
		ep.Close()
	}
	leaked := 0
	for _, p := range cl.Processes() {
		residual := p.Manager().PinnedPages()
		st := p.Manager().Stats()
		// A still-pinned region shows up in both the residual count and
		// the ledger delta; count it once, and count any remaining
		// divergence (either sign) as accounting drift.
		drift := int(st.PagesPinned) - int(st.PagesUnpinned) - residual
		if drift < 0 {
			drift = -drift
		}
		leaked += residual + drift
	}
	return leaked
}

// Run executes body on every rank and drives the shard set until all ranks
// finish; it panics if the simulation deadlocks (event queues drained with
// ranks still running).
func (cl *Cluster) Run(body func(c *mpi.Comm)) {
	cl.World.Run(body)
	cl.Set.Run()
	cl.dropFreePages()
	if !cl.World.AllDone() {
		panic("cluster: simulation deadlocked: event queue empty with ranks still blocked")
	}
}

// RunFor executes body on every rank but stops the simulation after budget
// of simulated time even if ranks are still blocked (useful for saturation
// experiments that never terminate, like the §4.3 overload). It reports
// whether all ranks finished. Blocked rank processes are abandoned; only
// use this from short-lived processes or tests.
func (cl *Cluster) RunFor(budget sim.Duration, body func(c *mpi.Comm)) bool {
	cl.World.Run(body)
	cl.bounded = true
	cl.Set.RunUntil(cl.Eng.Now() + budget)
	cl.dropFreePages()
	return cl.World.AllDone()
}

// dropFreePages empties every node's recycled-page free list once a run
// ends, so a finished simulation holds no pooled page buffers.
func (cl *Cluster) dropFreePages() {
	for _, n := range cl.Nodes {
		n.Phys.DropFreePages()
	}
}

// Now reports the simulation end time: the deadline for budget-bounded
// runs, otherwise the time of the last foreground event, whatever the
// shard layout.
func (cl *Cluster) Now() sim.Time {
	if cl.bounded {
		return cl.Eng.Now()
	}
	return cl.Set.LastForegroundTime()
}

// EventsFired sums dispatched events across all shards.
func (cl *Cluster) EventsFired() uint64 { return cl.Set.EventsFired() }

// ForegroundEventsFired sums dispatched non-daemon events across all
// shards. Daemon ticks keep firing to the end of the final window, past
// the last foreground event, so reports count foreground events only.
func (cl *Cluster) ForegroundEventsFired() uint64 { return cl.Set.ForegroundEventsFired() }

// Stats aggregates node driver stats across the cluster.
func (cl *Cluster) Stats() omx.NodeStats {
	var total omx.NodeStats
	for _, n := range cl.Nodes {
		s := n.Stats()
		total.FramesRx += s.FramesRx
		total.FramesTx += s.FramesTx
		total.EagerFragsRx += s.EagerFragsRx
		total.PullRepliesRx += s.PullRepliesRx
		total.OverlapMissSender += s.OverlapMissSender
		total.OverlapMissReceiver += s.OverlapMissReceiver
		total.ReRequests += s.ReRequests
		total.OptimisticReReqs += s.OptimisticReReqs
		total.Retransmits += s.Retransmits
		total.DupFrags += s.DupFrags
		total.ReqAborts += s.ReqAborts
		total.Crashes += s.Crashes
		total.Restarts += s.Restarts
	}
	return total
}
