// spec_fleet.go — the fleet: section of the spec format: node-group
// templates scaled to a total node count by weight (largest-remainder
// allocation onto cluster node groups), plus the startup schedule that
// staggers when each node's ranks begin.
package scenario

import (
	"math"
	"math/rand"
	"sort"

	"omxsim/internal/cluster"
	"omxsim/internal/ethernet"
	"omxsim/internal/sim"
	"omxsim/internal/yamlite"
)

// fleetSpec is the decoded fleet: section.
type fleetSpec struct {
	line    int
	total   int
	link    *ethernet.LinkConfig
	groups  []fleetGroup
	startup startupSpec
}

// fleetGroup is one node-group template: the group as cluster.New takes
// it, whose Nodes holds an explicit count (0 = allocate by weight) until
// resolve sets the allocation.
type fleetGroup struct {
	cluster.NodeGroup
	line   int
	weight int
}

// startPattern is a fleet startup pattern.
type startPattern int

const (
	startInstant startPattern = iota
	startLinear
	startExponential
	startWave
)

func (p startPattern) String() string {
	return [...]string{"instant", "linear", "exponential", "wave"}[p]
}

type startupSpec struct {
	pattern startPattern
	spread  sim.Duration
	waves   int
	jitter  float64
}

// decodeFleet decodes the fleet: section.
func (d *dec) decodeFleet(n *yamlite.Node) error {
	f := &fleetSpec{line: n.Line}
	d.fleet = f
	if err := d.walk(n, "fleet", "fleet", []field{
		{"total_nodes", (*count)(&f.total)},
		{"link", &f.link},
		{"groups", func(v *yamlite.Node) error { return d.items(v, "fleet.groups", d.decodeGroup) }},
		{"startup", d.decodeStartup},
	}); err != nil {
		return err
	}
	if f.total < 2 {
		return d.errf(n.Line, "fleet.total_nodes must be >= 2 (got %d)", f.total)
	}
	if len(f.groups) == 0 {
		return d.errf(n.Line, "fleet: at least one group template is required")
	}
	if f.link == nil {
		// Fleet-scale runs need a usefully wide lookahead window; default
		// to the fleet link (one switch hop).
		l := ethernet.DefaultLinkConfig()
		l.PropDelay = 2 * sim.Microsecond
		f.link = &l
	}
	return nil
}

// decodeGroup decodes one fleet group template.
func (d *dec) decodeGroup(it *yamlite.Node) error {
	g := fleetGroup{line: it.Line}
	if err := d.walk(it, "fleet group", "group", []field{
		{"name", &g.Name},
		{"weight", (*count)(&g.weight)},
		{"nodes", (*count)(&g.Nodes)},
		{"ranks_per_node", (*count)(&g.RanksPerNode)},
		{"endpoints_per_node", (*count)(&g.EndpointsPerNode)},
		{"nic_queues", (*count)(&g.NICQueues)},
		{"mem_frames", (*count)(&g.Mem.Frames)},
	}); err != nil {
		return err
	}
	if g.Name == "" {
		return d.errf(it.Line, "fleet group is missing the required `name` field")
	}
	if g.weight == 0 && g.Nodes == 0 {
		return d.errf(it.Line, "fleet group %q: set `weight` (proportional share) or `nodes` (fixed count)", g.Name)
	}
	d.fleet.groups = append(d.fleet.groups, g)
	return nil
}

// decodeStartup decodes the fleet's startup schedule.
func (d *dec) decodeStartup(n *yamlite.Node) error {
	st := &d.fleet.startup
	if err := d.walk(n, "fleet.startup", "startup", []field{
		{"pattern", &st.pattern},
		{"spread_us", &st.spread},
		{"waves", &st.waves},
		{"jitter", &st.jitter},
	}); err != nil {
		return err
	}
	if st.pattern == startWave && st.waves < 1 {
		return d.errf(n.Line, "startup.pattern `wave` needs `waves` >= 1")
	}
	if st.pattern != startInstant && st.spread <= 0 {
		return d.errf(n.Line, "startup.spread_us must be > 0 for a staged pattern")
	}
	return nil
}

// resolve allocates the fleet's total node count across the group
// templates: explicit `nodes` counts are fixed, the remainder splits by
// weight with largest-remainder rounding (deterministic: ties break on
// group order).
func (f *fleetSpec) resolve(d *dec) ([]cluster.NodeGroup, error) {
	fixed, weightSum := 0, 0
	for _, g := range f.groups {
		if g.Nodes > 0 {
			fixed += g.Nodes
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
			if g.Nodes > 0 {
				alloc[i] = g.Nodes
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
			alloc[i] = g.Nodes
		}
	}
	out := make([]cluster.NodeGroup, len(f.groups))
	for i, g := range f.groups {
		if alloc[i] < 1 {
			return nil, d.errf(g.line, "fleet group %q resolves to 0 nodes (raise its weight or total_nodes)", g.Name)
		}
		out[i] = g.NodeGroup
		out[i].Nodes = alloc[i]
		out[i].RanksPerNode = max(g.RanksPerNode, 1)
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
