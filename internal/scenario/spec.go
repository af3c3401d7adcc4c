// spec.go — the declarative scenario spec format. A spec is a strict
// YAML-subset document (parsed by internal/yamlite) that describes a
// scenario without Go code: the cluster or fleet shape, the pin-policy
// case matrix, a workload by kind, timed fault events, a chaos profile,
// and an ordered assertion block. ParseSpec decodes and validates with
// file:line errors (unknown fields are hard errors — a typo must never
// silently weaken an assertion); Compile lowers the result onto the
// same Scenario/Runner machinery the Go builtins use and checks node and
// rank indices against the resolved cluster, so a spec that loads does
// not crash or misfire at run time.
package scenario

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"omxsim/internal/chaos"
	"omxsim/internal/cluster"
	"omxsim/internal/ethernet"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/yamlite"
)

// Spec is a parsed (but not yet compiled) scenario spec.
type Spec struct {
	// File is the source path, used in error messages.
	File string
	// Name is the registry key the compiled scenario claims.
	Name string
	// Description is the one-line listing text.
	Description string

	clusterCfg cluster.Config
	hasCluster bool
	fleet      *fleetSpec
	cases      []Case
	sizes      []int
	quickSizes []int
	metric     string
	workload   *workloadSpec
	budget     sim.Duration
	faults     []Fault
	chaosProf  *chaos.Profile
	asserts    []Assertion
	sloTenants []sloRef
	indexRefs  []indexRef
}

// sloRef remembers where an SLO assertion named its tenant, for the
// cross-reference check against the kv workload's tenant list.
type sloRef struct {
	tenant string
	line   int
}

// indexRef remembers where a spec named a node or a rank by index, for
// the range check against the resolved cluster in Compile.
type indexRef struct {
	what  string
	rank  bool // a rank index; otherwise a node index
	index int
	line  int
}

// fleetSpec is the fleet: section — node-group templates scaled to a
// total node count, plus the startup schedule.
type fleetSpec struct {
	line    int
	total   int
	link    *ethernet.LinkConfig
	groups  []fleetGroup
	startup startupSpec
}

type fleetGroup struct {
	line         int
	name         string
	weight       int
	nodes        int // explicit count; 0 = allocate by weight
	ranksPerNode int
	frames       int
	epsPerNode   int // endpoints per rank-role; 0 = inherit the base config
	nicQueues    int // NIC tx/rx queue pairs; 0 = inherit the base config
}

// Startup patterns.
const (
	startInstant = iota
	startLinear
	startExponential
	startWave
)

type startupSpec struct {
	pattern int
	spread  sim.Duration
	waves   int
	jitter  float64
}

// dec carries the source file name through the decoder for error
// messages.
type dec struct{ file string }

func (d *dec) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", d.file, line, fmt.Sprintf(format, args...))
}

// scalar asserts the node is a scalar and returns its value.
func (d *dec) scalar(n *yamlite.Node, what string) (string, error) {
	if n.Kind != yamlite.Scalar {
		return "", d.errf(n.Line, "%s: expected a scalar value, got a %s", what, n.Kind)
	}
	return n.Value, nil
}

func (d *dec) str(n *yamlite.Node, what string) (string, error) {
	return d.scalar(n, what)
}

func (d *dec) intVal(n *yamlite.Node, what string) (int, error) {
	s, err := d.scalar(n, what)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, d.errf(n.Line, "%s: %q is not an integer", what, s)
	}
	return v, nil
}

// maxCount bounds every count a spec gives (nodes, ranks, weights,
// frames): far beyond any cluster the simulator can run, and small enough
// that the fleet allocation arithmetic cannot overflow.
const maxCount = 1 << 20

// countVal parses a count: an integer in 0..maxCount, where 0 keeps the
// default.
func (d *dec) countVal(n *yamlite.Node, what string) (int, error) {
	v, err := d.intVal(n, what)
	if err == nil && (v < 0 || v > maxCount) {
		err = d.errf(n.Line, "%s: %d is out of range (0..%d)", what, v, maxCount)
	}
	return v, err
}

func (d *dec) floatVal(n *yamlite.Node, what string) (float64, error) {
	s, err := d.scalar(n, what)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, d.errf(n.Line, "%s: %q is not a number", what, s)
	}
	return v, nil
}

func (d *dec) boolVal(n *yamlite.Node, what string) (bool, error) {
	s, err := d.scalar(n, what)
	if err != nil {
		return false, err
	}
	switch s {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, d.errf(n.Line, "%s: %q is not true/false", what, s)
}

// bytesVal parses a byte count: a plain integer or a number with a
// B/KiB/MiB/GiB suffix ("256KiB", "1MiB").
func (d *dec) bytesVal(n *yamlite.Node, what string) (int, error) {
	s, err := d.scalar(n, what)
	if err != nil {
		return 0, err
	}
	v, err := parseBytes(s)
	if err != nil {
		return 0, d.errf(n.Line, "%s: %v", what, err)
	}
	return v, nil
}

func parseBytes(s string) (int, error) {
	mult := 1
	num := s
	for _, suf := range []struct {
		tag string
		m   int
	}{{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10}, {"B", 1}} {
		if strings.HasSuffix(s, suf.tag) {
			mult = suf.m
			num = strings.TrimSuffix(s, suf.tag)
			break
		}
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("%q is not a byte size (use an integer or a KiB/MiB/GiB suffix)", s)
	}
	return int(f * float64(mult)), nil
}

// durUS parses a duration given in microseconds of simulated time.
func (d *dec) durUS(n *yamlite.Node, what string) (sim.Duration, error) {
	v, err := d.floatVal(n, what)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, d.errf(n.Line, "%s: must be >= 0", what)
	}
	return sim.Duration(v * float64(sim.Microsecond)), nil
}

func (d *dec) wantMap(n *yamlite.Node, what string) error {
	if n.Kind != yamlite.Map {
		return d.errf(n.Line, "%s: expected a mapping, got a %s", what, n.Kind)
	}
	return nil
}

func (d *dec) wantSeq(n *yamlite.Node, what string) error {
	if n.Kind != yamlite.Seq {
		return d.errf(n.Line, "%s: expected a sequence, got a %s", what, n.Kind)
	}
	return nil
}

// sizeSeq parses a list of byte sizes.
func (d *dec) sizeSeq(n *yamlite.Node, what string) ([]int, error) {
	if err := d.wantSeq(n, what); err != nil {
		return nil, err
	}
	var out []int
	for _, it := range n.Items {
		v, err := d.bytesVal(it, what)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseSpec decodes and validates a scenario spec. Every decode error
// carries file:line context; unknown fields anywhere in the document are
// errors.
func ParseSpec(src []byte, file string) (*Spec, error) {
	root, err := yamlite.Parse(src, file)
	if err != nil {
		return nil, err
	}
	d := &dec{file: file}
	if err := d.wantMap(root, "document root"); err != nil {
		return nil, err
	}
	sp := &Spec{File: file}
	var clusterLine, fleetLine int
	for _, p := range root.Pairs {
		switch p.Key {
		case "name":
			if sp.Name, err = d.str(p.Val, "name"); err != nil {
				return nil, err
			}
		case "description":
			if sp.Description, err = d.str(p.Val, "description"); err != nil {
				return nil, err
			}
		case "cluster":
			clusterLine = p.Line
			if err = d.decodeCluster(p.Val, sp); err != nil {
				return nil, err
			}
		case "fleet":
			fleetLine = p.Line
			if err = d.decodeFleet(p.Val, sp); err != nil {
				return nil, err
			}
		case "cases":
			if err = d.decodeCases(p.Val, sp); err != nil {
				return nil, err
			}
		case "sizes":
			if sp.sizes, err = d.sizeSeq(p.Val, "sizes"); err != nil {
				return nil, err
			}
		case "quick_sizes":
			if sp.quickSizes, err = d.sizeSeq(p.Val, "quick_sizes"); err != nil {
				return nil, err
			}
		case "metric":
			if sp.metric, err = d.str(p.Val, "metric"); err != nil {
				return nil, err
			}
		case "workload":
			if err = d.decodeWorkload(p.Val, sp); err != nil {
				return nil, err
			}
		case "budget_us":
			if sp.budget, err = d.durUS(p.Val, "budget_us"); err != nil {
				return nil, err
			}
		case "faults":
			if err = d.decodeFaults(p.Val, sp); err != nil {
				return nil, err
			}
		case "chaos":
			if err = d.decodeChaos(p.Val, sp); err != nil {
				return nil, err
			}
		case "assertions":
			if err = d.decodeAssertions(p.Val, sp); err != nil {
				return nil, err
			}
		default:
			return nil, d.errf(p.Line, "unknown field %q (top-level fields: name, description, cluster, fleet, cases, sizes, quick_sizes, metric, workload, budget_us, faults, chaos, assertions)", p.Key)
		}
	}
	if sp.Name == "" {
		return nil, d.errf(root.Line, "spec is missing the required `name` field")
	}
	if sp.workload == nil {
		return nil, d.errf(root.Line, "spec %q is missing the required `workload` section", sp.Name)
	}
	if sp.hasCluster && sp.fleet != nil {
		return nil, d.errf(fleetLine, "spec %q sets both `cluster` (line %d) and `fleet`: pick one", sp.Name, clusterLine)
	}
	if err := d.crossCheck(sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// crossCheck validates references between sections once everything is
// decoded: workload/size coupling and SLO tenant names.
func (d *dec) crossCheck(sp *Spec) error {
	w := sp.workload
	if w.needsSizes && len(sp.sizes) == 0 {
		return d.errf(w.line, "workload kind %q reads the message size from the sweep: add a `sizes` list", w.kind)
	}
	for _, ref := range sp.sloTenants {
		if w.kvCfg == nil {
			return d.errf(ref.line, "slo %q: SLO assertions need a kv workload (this spec's workload kind is %q)", ref.tenant, w.kind)
		}
		found := false
		for _, t := range w.kvCfg.Tenants {
			if t.Name == ref.tenant {
				found = true
				break
			}
		}
		if !found {
			var names []string
			for _, t := range w.kvCfg.Tenants {
				names = append(names, t.Name)
			}
			return d.errf(ref.line, "slo %q: no such tenant in the kv workload (tenants: %s)", ref.tenant, strings.Join(names, ", "))
		}
	}
	if sp.fleet != nil {
		seen := map[string]bool{}
		for _, g := range sp.fleet.groups {
			if seen[g.name] {
				return d.errf(g.line, "fleet group %q: duplicate group name", g.name)
			}
			seen[g.name] = true
		}
	}
	return nil
}

// decodeCluster fills the base cluster.Config from the cluster: section.
func (d *dec) decodeCluster(n *yamlite.Node, sp *Spec) error {
	if err := d.wantMap(n, "cluster"); err != nil {
		return err
	}
	sp.hasCluster = true
	cfg := &sp.clusterCfg
	for _, p := range n.Pairs {
		var err error
		switch p.Key {
		case "nodes":
			cfg.Nodes, err = d.countVal(p.Val, "cluster.nodes")
		case "ranks_per_node":
			cfg.RanksPerNode, err = d.countVal(p.Val, "cluster.ranks_per_node")
		case "ranks_per_proc":
			cfg.RanksPerProc, err = d.countVal(p.Val, "cluster.ranks_per_proc")
		case "endpoints_per_node":
			cfg.EndpointsPerNode, err = d.countVal(p.Val, "cluster.endpoints_per_node")
		case "nic_queues":
			cfg.NICQueues, err = d.countVal(p.Val, "cluster.nic_queues")
		case "mem_frames":
			cfg.Mem.Frames, err = d.countVal(p.Val, "cluster.mem_frames")
		case "link":
			cfg.Link, err = d.decodeLink(p.Val, "cluster.link")
		default:
			return d.errf(p.Line, "cluster: unknown field %q (fields: nodes, ranks_per_node, ranks_per_proc, endpoints_per_node, nic_queues, mem_frames, link)", p.Key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeLink decodes a link override block, starting from the default
// 10G link.
func (d *dec) decodeLink(n *yamlite.Node, what string) (*ethernet.LinkConfig, error) {
	if err := d.wantMap(n, what); err != nil {
		return nil, err
	}
	l := ethernet.DefaultLinkConfig()
	for _, p := range n.Pairs {
		var err error
		switch p.Key {
		case "prop_delay_us":
			// The one-way latency is the engine lookahead, so it must be
			// at least 1ns.
			var us float64
			if us, err = d.floatVal(p.Val, what+".prop_delay_us"); err == nil {
				if l.PropDelay = sim.Duration(us * float64(sim.Microsecond)); l.PropDelay <= 0 {
					err = d.errf(p.Val.Line, "%s.prop_delay_us: %g is below 1ns (the link latency is the engine lookahead)", what, us)
				}
			}
		case "bytes_per_sec":
			l.BytesPerSec, err = d.floatVal(p.Val, what+".bytes_per_sec")
		case "drop_prob":
			l.DropProb, err = d.floatVal(p.Val, what+".drop_prob")
		default:
			return nil, d.errf(p.Line, "%s: unknown field %q (fields: prop_delay_us, bytes_per_sec, drop_prob)", what, p.Key)
		}
		if err != nil {
			return nil, err
		}
	}
	return &l, nil
}

// decodeFleet parses the fleet: section.
func (d *dec) decodeFleet(n *yamlite.Node, sp *Spec) error {
	if err := d.wantMap(n, "fleet"); err != nil {
		return err
	}
	f := &fleetSpec{line: n.Line}
	for _, p := range n.Pairs {
		var err error
		switch p.Key {
		case "total_nodes":
			f.total, err = d.countVal(p.Val, "fleet.total_nodes")
		case "link":
			f.link, err = d.decodeLink(p.Val, "fleet.link")
		case "groups":
			err = d.decodeGroups(p.Val, f)
		case "startup":
			err = d.decodeStartup(p.Val, f)
		default:
			return d.errf(p.Line, "fleet: unknown field %q (fields: total_nodes, link, groups, startup)", p.Key)
		}
		if err != nil {
			return err
		}
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
	sp.fleet = f
	return nil
}

func (d *dec) decodeGroups(n *yamlite.Node, f *fleetSpec) error {
	if err := d.wantSeq(n, "fleet.groups"); err != nil {
		return err
	}
	for _, it := range n.Items {
		if err := d.wantMap(it, "fleet group"); err != nil {
			return err
		}
		g := fleetGroup{line: it.Line}
		for _, p := range it.Pairs {
			var err error
			switch p.Key {
			case "name":
				g.name, err = d.str(p.Val, "group.name")
			case "weight":
				g.weight, err = d.countVal(p.Val, "group.weight")
			case "nodes":
				g.nodes, err = d.countVal(p.Val, "group.nodes")
			case "ranks_per_node":
				g.ranksPerNode, err = d.countVal(p.Val, "group.ranks_per_node")
			case "endpoints_per_node":
				g.epsPerNode, err = d.countVal(p.Val, "group.endpoints_per_node")
			case "nic_queues":
				g.nicQueues, err = d.countVal(p.Val, "group.nic_queues")
			case "mem_frames":
				g.frames, err = d.countVal(p.Val, "group.mem_frames")
			default:
				return d.errf(p.Line, "fleet group: unknown field %q (fields: name, weight, nodes, ranks_per_node, endpoints_per_node, nic_queues, mem_frames)", p.Key)
			}
			if err != nil {
				return err
			}
		}
		if g.name == "" {
			return d.errf(it.Line, "fleet group is missing the required `name` field")
		}
		if g.weight == 0 && g.nodes == 0 {
			return d.errf(it.Line, "fleet group %q: set `weight` (proportional share) or `nodes` (fixed count)", g.name)
		}
		f.groups = append(f.groups, g)
	}
	return nil
}

func (d *dec) decodeStartup(n *yamlite.Node, f *fleetSpec) error {
	if err := d.wantMap(n, "fleet.startup"); err != nil {
		return err
	}
	st := &f.startup
	for _, p := range n.Pairs {
		var err error
		switch p.Key {
		case "pattern":
			var s string
			if s, err = d.str(p.Val, "startup.pattern"); err == nil {
				switch s {
				case "instant":
					st.pattern = startInstant
				case "linear":
					st.pattern = startLinear
				case "exponential":
					st.pattern = startExponential
				case "wave":
					st.pattern = startWave
				default:
					err = d.errf(p.Val.Line, "startup.pattern: unknown pattern %q (instant, linear, exponential, wave)", s)
				}
			}
		case "spread_us":
			st.spread, err = d.durUS(p.Val, "startup.spread_us")
		case "waves":
			st.waves, err = d.intVal(p.Val, "startup.waves")
		case "jitter":
			st.jitter, err = d.floatVal(p.Val, "startup.jitter")
		default:
			return d.errf(p.Line, "fleet.startup: unknown field %q (fields: pattern, spread_us, waves, jitter)", p.Key)
		}
		if err != nil {
			return err
		}
	}
	if st.pattern == startWave && st.waves < 1 {
		return d.errf(n.Line, "startup.pattern `wave` needs `waves` >= 1")
	}
	if st.pattern != startInstant && st.spread <= 0 {
		return d.errf(n.Line, "startup.spread_us must be > 0 for a staged pattern")
	}
	return nil
}

// decodeCases parses the case matrix.
func (d *dec) decodeCases(n *yamlite.Node, sp *Spec) error {
	if err := d.wantSeq(n, "cases"); err != nil {
		return err
	}
	for _, it := range n.Items {
		if err := d.wantMap(it, "case"); err != nil {
			return err
		}
		var (
			label   string
			polName string
			polLine int
			cache   bool
			c       Case
			retrans sim.Duration
			dead    sim.Duration
			ioat    bool
			pinLim  int
		)
		for _, p := range it.Pairs {
			var err error
			switch p.Key {
			case "label":
				label, err = d.str(p.Val, "case.label")
			case "policy":
				polLine = p.Val.Line
				polName, err = d.str(p.Val, "case.policy")
			case "cache":
				cache, err = d.boolVal(p.Val, "case.cache")
			case "use_ioat":
				ioat, err = d.boolVal(p.Val, "case.use_ioat")
			case "retransmit_timeout_us":
				retrans, err = d.durUS(p.Val, "case.retransmit_timeout_us")
			case "peer_dead_timeout_us":
				dead, err = d.durUS(p.Val, "case.peer_dead_timeout_us")
			case "pinned_page_limit":
				pinLim, err = d.intVal(p.Val, "case.pinned_page_limit")
			case "params":
				if err = d.wantMap(p.Val, "case.params"); err == nil {
					c.Params = map[string]string{}
					for _, pp := range p.Val.Pairs {
						var v string
						if v, err = d.str(pp.Val, "case.params."+pp.Key); err != nil {
							break
						}
						c.Params[pp.Key] = v
					}
				}
			default:
				return d.errf(p.Line, "case: unknown field %q (fields: label, policy, cache, use_ioat, retransmit_timeout_us, peer_dead_timeout_us, pinned_page_limit, params)", p.Key)
			}
			if err != nil {
				return err
			}
		}
		if label == "" {
			return d.errf(it.Line, "case is missing the required `label` field")
		}
		if polName == "" {
			return d.errf(it.Line, "case %q is missing the required `policy` field", label)
		}
		pol, ok := policy.ByName(polName)
		if !ok {
			return d.errf(polLine, "case %q: unknown policy %q (policies: %s)", label, polName, strings.Join(policy.Names(), ", "))
		}
		for _, prev := range sp.cases {
			if prev.Label == label {
				return d.errf(it.Line, "case %q: duplicate case label", label)
			}
		}
		c.Label = label
		c.OMX = omx.DefaultConfig(pol, cache)
		if retrans > 0 {
			c.OMX.RetransmitTimeout = retrans
		}
		if dead > 0 {
			c.OMX.PeerDeadTimeout = dead
		}
		if ioat {
			c.OMX.UseIOAT = true
		}
		if pinLim > 0 {
			c.OMX.PinnedPageLimit = pinLim
		}
		sp.cases = append(sp.cases, c)
	}
	return nil
}

// decodeFaults parses the timed one-shot fault events.
func (d *dec) decodeFaults(n *yamlite.Node, sp *Spec) error {
	if err := d.wantSeq(n, "faults"); err != nil {
		return err
	}
	kinds := map[string]FaultKind{
		"free": FaultFree, "fork": FaultFork, "swapout": FaultSwapOut,
		"flood": FaultFlood, "mprotect": FaultMProtect, "crash": FaultCrash,
		"link-degrade": FaultLinkDegrade, "partition": FaultPartition,
		"budget-shrink": FaultBudgetShrink,
	}
	for _, it := range n.Items {
		if err := d.wantMap(it, "fault"); err != nil {
			return err
		}
		var f Fault
		kindSet := false
		for _, p := range it.Pairs {
			var err error
			switch p.Key {
			case "at_us":
				f.At, err = d.durUS(p.Val, "fault.at_us")
			case "kind":
				var s string
				if s, err = d.str(p.Val, "fault.kind"); err == nil {
					k, ok := kinds[s]
					if !ok {
						err = d.errf(p.Val.Line, "fault.kind: unknown kind %q (kinds: free, fork, swapout, flood, mprotect, crash, link-degrade, partition, budget-shrink)", s)
					} else {
						f.Kind, kindSet = k, true
					}
				}
			case "rank":
				if f.Rank, err = d.intVal(p.Val, "fault.rank"); err == nil {
					sp.indexRefs = append(sp.indexRefs, indexRef{what: "fault.rank", rank: true, index: f.Rank, line: p.Line})
				}
			case "buffer":
				f.Buffer, err = d.str(p.Val, "fault.buffer")
			case "util":
				if f.Util, err = d.floatVal(p.Val, "fault.util"); err == nil && !(f.Util >= 0 && f.Util <= 1) {
					err = d.errf(p.Val.Line, "fault.util: %v is out of range (0..1)", f.Util)
				}
			case "for_us":
				f.For, err = d.durUS(p.Val, "fault.for_us")
			case "node":
				if f.Node, err = d.intVal(p.Val, "fault.node"); err == nil {
					sp.indexRefs = append(sp.indexRefs, indexRef{what: "fault.node", index: f.Node, line: p.Line})
				}
			case "frames":
				f.Frames, err = d.intVal(p.Val, "fault.frames")
			case "extra_latency_us":
				f.Degrade.ExtraLatency, err = d.durUS(p.Val, "fault.extra_latency_us")
			case "bandwidth_factor":
				f.Degrade.BandwidthFactor, err = d.floatVal(p.Val, "fault.bandwidth_factor")
			case "drop_prob":
				f.Degrade.DropProb, err = d.floatVal(p.Val, "fault.drop_prob")
			default:
				return d.errf(p.Line, "fault: unknown field %q (fields: at_us, kind, rank, buffer, util, for_us, node, frames, extra_latency_us, bandwidth_factor, drop_prob)", p.Key)
			}
			if err != nil {
				return err
			}
		}
		if !kindSet {
			return d.errf(it.Line, "fault is missing the required `kind` field")
		}
		sp.faults = append(sp.faults, f)
	}
	return nil
}

// decodeChaos parses the chaos profile section.
func (d *dec) decodeChaos(n *yamlite.Node, sp *Spec) error {
	if err := d.wantMap(n, "chaos"); err != nil {
		return err
	}
	prof := &chaos.Profile{}
	for _, p := range n.Pairs {
		var err error
		switch p.Key {
		case "horizon_us":
			prof.Horizon, err = d.durUS(p.Val, "chaos.horizon_us")
		case "interval_us":
			prof.Interval, err = d.durUS(p.Val, "chaos.interval_us")
		case "specs":
			err = d.decodeChaosSpecs(p.Val, prof, sp)
		default:
			return d.errf(p.Line, "chaos: unknown field %q (fields: horizon_us, interval_us, specs)", p.Key)
		}
		if err != nil {
			return err
		}
	}
	if prof.Horizon <= 0 {
		return d.errf(n.Line, "chaos.horizon_us must be > 0")
	}
	if len(prof.Specs) == 0 {
		return d.errf(n.Line, "chaos: at least one spec is required")
	}
	sp.chaosProf = prof
	return nil
}

func (d *dec) decodeChaosSpecs(n *yamlite.Node, prof *chaos.Profile, sp *Spec) error {
	if err := d.wantSeq(n, "chaos.specs"); err != nil {
		return err
	}
	classes := map[string]chaos.Class{
		"node-crash": chaos.NodeCrash, "link-degrade": chaos.LinkDegrade,
		"partition": chaos.Partition, "budget-shrink": chaos.BudgetShrink,
	}
	arrivals := map[string]chaos.Arrival{
		"poisson": chaos.Poisson, "uniform": chaos.Uniform, "burst": chaos.Burst,
	}
	for _, it := range n.Items {
		if err := d.wantMap(it, "chaos spec"); err != nil {
			return err
		}
		var cs chaos.Spec
		classSet := false
		for _, p := range it.Pairs {
			var err error
			switch p.Key {
			case "class":
				var s string
				if s, err = d.str(p.Val, "chaos.class"); err == nil {
					c, ok := classes[s]
					if !ok {
						err = d.errf(p.Val.Line, "chaos.class: unknown class %q (classes: node-crash, link-degrade, partition, budget-shrink)", s)
					} else {
						cs.Class, classSet = c, true
					}
				}
			case "arrival":
				var s string
				if s, err = d.str(p.Val, "chaos.arrival"); err == nil {
					a, ok := arrivals[s]
					if !ok {
						err = d.errf(p.Val.Line, "chaos.arrival: unknown arrival %q (arrivals: poisson, uniform, burst)", s)
					} else {
						cs.Arrival = a
					}
				}
			case "mean_gap_us":
				cs.MeanGap, err = d.durUS(p.Val, "chaos.mean_gap_us")
			case "jitter":
				cs.Jitter, err = d.floatVal(p.Val, "chaos.jitter")
			case "duration_us":
				cs.Duration, err = d.durUS(p.Val, "chaos.duration_us")
			case "duration_jitter":
				cs.DurationJitter, err = d.floatVal(p.Val, "chaos.duration_jitter")
			case "burst_len":
				cs.BurstLen, err = d.intVal(p.Val, "chaos.burst_len")
			case "nodes":
				if err = d.wantSeq(p.Val, "chaos.nodes"); err == nil {
					for _, nn := range p.Val.Items {
						var v int
						if v, err = d.intVal(nn, "chaos.nodes"); err != nil {
							break
						}
						cs.Nodes = append(cs.Nodes, v)
						sp.indexRefs = append(sp.indexRefs, indexRef{what: "chaos.nodes", index: v, line: nn.Line})
					}
				}
			case "extra_latency_us":
				cs.ExtraLatency, err = d.durUS(p.Val, "chaos.extra_latency_us")
			case "bandwidth_factor":
				cs.BandwidthFactor, err = d.floatVal(p.Val, "chaos.bandwidth_factor")
			case "drop_prob":
				cs.DropProb, err = d.floatVal(p.Val, "chaos.drop_prob")
			case "shrink_factor":
				cs.ShrinkFactor, err = d.floatVal(p.Val, "chaos.shrink_factor")
			case "frames":
				cs.Frames, err = d.intVal(p.Val, "chaos.frames")
			default:
				return d.errf(p.Line, "chaos spec: unknown field %q (fields: class, arrival, mean_gap_us, jitter, duration_us, duration_jitter, burst_len, nodes, extra_latency_us, bandwidth_factor, drop_prob, shrink_factor, frames)", p.Key)
			}
			if err != nil {
				return err
			}
		}
		if !classSet {
			return d.errf(it.Line, "chaos spec is missing the required `class` field")
		}
		if cs.MeanGap <= 0 {
			return d.errf(it.Line, "chaos spec: `mean_gap_us` must be > 0")
		}
		prof.Specs = append(prof.Specs, cs)
	}
	return nil
}

// LoadSpecData parses and compiles a spec without registering it.
func LoadSpecData(src []byte, file string) (*Scenario, error) {
	sp, err := ParseSpec(src, file)
	if err != nil {
		return nil, err
	}
	return sp.Compile()
}

// LoadSpecFile reads, parses, and compiles a spec file.
func LoadSpecFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return LoadSpecData(data, path)
}
