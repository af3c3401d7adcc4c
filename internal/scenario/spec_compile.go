// spec_compile.go — lowering a parsed Spec onto the Scenario/Runner
// machinery. Compile is pure assembly: the decode stage already built
// the cases, faults, chaos profile, and assertions from the same
// constructors the Go builtins use, so what remains is the fleet math
// (weight allocation onto cluster node groups, the startup schedule)
// and wiring the workload's quick override and report hook.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"omxsim/internal/cluster"
	"omxsim/internal/mpi"
	"omxsim/internal/sim"
)

// Compile lowers the spec into a runnable Scenario. The caller decides
// registration (and stamps Source); Compile never touches the registry.
// Its errors carry file:line like the decoder's: fleet allocation, and
// node and rank indices checked against the resolved cluster.
func (sp *Spec) Compile() (*Scenario, error) {
	d := &dec{file: sp.File}
	s := &Scenario{
		Name:        sp.Name,
		Description: sp.Description,
		Cluster:     sp.clusterCfg,
		Cases:       sp.cases,
		Sizes:       sp.sizes,
		QuickSizes:  sp.quickSizes,
		Metric:      sp.metric,
		Budget:      sp.budget,
		Faults:      sp.faults,
		Chaos:       sp.chaosProf,
		Assertions:  sp.asserts,
	}
	if sp.fleet != nil {
		groups, err := sp.fleet.resolve(d)
		if err != nil {
			return nil, err
		}
		s.Cluster.Groups = groups
		s.Cluster.Link = sp.fleet.link
	}
	nodes, ranks := clusterSize(s.Cluster)
	for _, r := range sp.indexRefs {
		limit, unit := nodes, "nodes"
		if r.rank {
			limit, unit = ranks, "ranks"
		}
		if r.index < 0 || r.index >= limit {
			return nil, d.errf(r.line, "%s: %d is out of range (the cluster has %d %s)", r.what, r.index, limit, unit)
		}
	}

	w := sp.workload.workload
	if quick := sp.workload.quickWorkload; quick != nil {
		full := w
		w = func(c *mpi.Comm, cr *CaseRun) {
			if cr.Quick {
				quick(c, cr)
			} else {
				full(c, cr)
			}
		}
	}
	if sp.fleet != nil && (sp.fleet.startup.pattern != startInstant || sp.fleet.startup.jitter > 0) {
		st := sp.fleet.startup
		total := sp.fleet.total
		inner := w
		w = func(c *mpi.Comm, cr *CaseRun) {
			if delay := startupDelay(st, c.Endpoint().Node().ID, total, cr.Seed); delay > 0 {
				c.Compute(delay)
			}
			inner(c, cr)
		}
	}
	s.Workload = w
	if cfg := sp.workload.kvCfg; cfg != nil {
		s.Report = kvReport(*cfg, ranks)
	}
	return s, nil
}

// resolve allocates the fleet's total node count across the group
// templates: explicit `nodes` counts are fixed, the remainder splits by
// weight with largest-remainder rounding (deterministic: ties break on
// group order).
func (f *fleetSpec) resolve(d *dec) ([]cluster.NodeGroup, error) {
	fixed, weightSum := 0, 0
	for _, g := range f.groups {
		if g.nodes > 0 {
			fixed += g.nodes
		} else {
			weightSum += g.weight
		}
	}
	remain := f.total - fixed
	if remain < 0 {
		return nil, d.errf(f.line, "fleet: explicit group nodes (%d) exceed total_nodes (%d)", fixed, f.total)
	}
	if weightSum == 0 && remain != 0 {
		return nil, d.errf(f.line, "fleet: explicit group nodes (%d) do not cover total_nodes (%d) and no weighted group takes the remainder", fixed, f.total)
	}
	alloc := make([]int, len(f.groups))
	if weightSum > 0 {
		type slot struct {
			idx int
			rem int
		}
		var slots []slot
		assigned := 0
		for i, g := range f.groups {
			if g.nodes > 0 {
				alloc[i] = g.nodes
				continue
			}
			share := remain * g.weight / weightSum
			alloc[i] = share
			assigned += share
			slots = append(slots, slot{idx: i, rem: remain * g.weight % weightSum})
		}
		sort.SliceStable(slots, func(a, b int) bool { return slots[a].rem > slots[b].rem })
		for j := 0; j < remain-assigned; j++ {
			alloc[slots[j%len(slots)].idx]++
		}
	} else {
		for i, g := range f.groups {
			alloc[i] = g.nodes
		}
	}
	out := make([]cluster.NodeGroup, len(f.groups))
	for i, g := range f.groups {
		if alloc[i] < 1 {
			return nil, d.errf(g.line, "fleet group %q resolves to 0 nodes (raise its weight or total_nodes)", g.name)
		}
		rpn := g.ranksPerNode
		if rpn == 0 {
			rpn = 1
		}
		out[i] = cluster.NodeGroup{
			Name: g.name, Nodes: alloc[i], RanksPerNode: rpn,
			EndpointsPerNode: g.epsPerNode, NICQueues: g.nicQueues,
		}
		out[i].Mem.Frames = g.frames
	}
	return out, nil
}

// clusterSize counts the nodes and ranks cluster.New builds from cfg
// (spec counts are never negative).
func clusterSize(cfg cluster.Config) (nodes, ranks int) {
	if len(cfg.Groups) > 0 {
		for _, g := range cfg.Groups {
			nodes += g.Nodes
			ranks += g.Nodes * max(g.RanksPerNode, 1)
		}
		return nodes, ranks
	}
	nodes = cfg.Nodes
	if nodes == 0 {
		nodes = 2
	}
	return nodes, nodes * max(cfg.RanksPerNode, 1)
}

// startupDelay computes one node's startup offset: the pattern's base
// stagger plus seeded per-node jitter. The draw comes from a per-node
// RNG stream keyed off (seed, node), so the schedule is a pure function
// of its arguments — identical across shard counts and GOMAXPROCS.
func startupDelay(st startupSpec, node, total int, seed int64) sim.Duration {
	spread := float64(st.spread)
	var base, step float64
	switch st.pattern {
	case startLinear:
		if total > 1 {
			base = spread * float64(node) / float64(total-1)
		}
		step = spread / float64(total)
	case startExponential:
		if total > 1 {
			base = spread * math.Log(float64(node)+1) / math.Log(float64(total))
		}
		step = spread / float64(total)
	case startWave:
		waves := st.waves
		gap := spread / float64(waves)
		if waves > 1 {
			gap = spread / float64(waves-1)
		}
		base = gap * float64(node*waves/total)
		step = spread / float64(waves)
	default: // instant
		step = spread
	}
	if st.jitter > 0 && step > 0 {
		rng := rand.New(rand.NewSource(seed ^ (int64(node)+1)*0x5851f42d4c957f2d))
		base += rng.Float64() * st.jitter * step
	}
	return sim.Duration(base)
}

// LoadAndRegisterSpecFile loads a spec file and registers the compiled
// scenario with SourceFile. A name collision — with a builtin or an
// earlier file — is a hard error, never a silent shadow.
func LoadAndRegisterSpecFile(path string) (*Scenario, error) {
	s, err := LoadSpecFile(path)
	if err != nil {
		return nil, err
	}
	s.Source = SourceFile
	if err := Register(s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ValidateSpecFile parses and compiles a spec file without registering
// it, additionally reporting a name collision with the live registry as
// an error (what registration would reject).
func ValidateSpecFile(path string) (*Scenario, error) {
	s, err := LoadSpecFile(path)
	if err != nil {
		return nil, err
	}
	if prev, ok := Get(s.Name); ok {
		return nil, fmt.Errorf("%s: scenario name %q collides with the registered %s scenario", path, s.Name, prev.Source)
	}
	return s, nil
}
