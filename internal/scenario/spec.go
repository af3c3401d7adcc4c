// spec.go — the declarative scenario spec format. A spec is a strict
// YAML-subset document (parsed by internal/yamlite) that describes a
// scenario without Go code: the cluster or fleet shape, the pin-policy
// case matrix, a workload by kind, timed fault events, a chaos profile,
// and an ordered assertion block. LoadSpecData decodes it straight into
// the same Scenario/Runner machinery the Go builtins use. Every mapping
// is a table of typed fields that one walker decodes, so each key is
// written once: the table matches it, parses its value, and lists it
// when an unknown key is rejected (unknown fields are hard errors — a
// typo must never silently weaken an assertion). Every error carries
// file:line. Once the walk is done the loader resolves the fleet and
// checks node and rank indices, kv shapes and sweep sizes against the
// resolved cluster, so a spec that loads does not crash or misfire at
// run time.
package scenario

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"omxsim/internal/chaos"
	"omxsim/internal/ethernet"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/yamlite"
)

// dec is one spec's decoding state: the scenario it fills, and what the
// checks after the walk read.
type dec struct {
	file      string
	s         *Scenario
	fleet     *fleetSpec
	work      *workloadSpec
	sloRefs   []sloRef
	indexRefs []indexRef
}

// sloRef remembers an SLO assertion and the line of its tenant name, for
// the cross-reference check against the kv workload's tenant list.
type sloRef struct {
	slo  KVSLO
	line int
}

// indexRef remembers where a spec named a node or a rank by index, for
// the range check against the resolved cluster.
type indexRef struct {
	what  string
	rank  bool // a rank index; otherwise a node index
	index int
	line  int
}

// A field is one key of a mapping. The type of dst picks the parser:
// *string, *int, *count, *float64, *bool, *byteSize, *sim.Duration
// (given in µs), *[]int (a list of byte sizes), *map[string]string (a
// mapping of strings), **ethernet.LinkConfig (a link block),
// *policy.Policy (a registered policy name), a pointer to an enum (a
// name matched by its String()), or a func(*yamlite.Node) error for a
// section or a key that cross-checks.
type field struct {
	key string
	dst any
}

// count is an int field holding a count: 0..maxCount, where 0 keeps the
// default.
type count int

// byteSize is an int field holding a byte size: a plain integer or a
// number with a B/KiB/MiB/GiB suffix ("256KiB", "1MiB").
type byteSize int

// maxCount bounds every count a spec gives (nodes, ranks, weights,
// frames): far beyond any cluster the simulator can run, and small enough
// that the fleet allocation arithmetic cannot overflow.
const maxCount = 1 << 20

// name is a value's dotted name in errors ("cluster.nodes"), joined only
// when an error prints it.
type name struct{ path, key string }

func (n name) String() string {
	if n.path == "" {
		return n.key
	}
	return n.path + "." + n.key
}

func (d *dec) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", d.file, line, fmt.Sprintf(format, args...))
}

// walk decodes mapping n against its field table. section names the
// mapping in errors; path prefixes its keys in value errors ("cluster"
// makes "cluster.nodes").
func (d *dec) walk(n *yamlite.Node, section, path string, fields []field) error {
	if err := d.wantMap(n, name{key: section}); err != nil {
		return err
	}
pairs:
	for _, p := range n.Pairs {
		for _, f := range fields {
			if f.key == p.Key {
				if err := d.set(p.Val, f.dst, name{path, p.Key}); err != nil {
					return err
				}
				continue pairs
			}
		}
		// Copy the keys out: handing the table's own strings to fmt would
		// make every destination the table points at escape to the heap.
		var keys strings.Builder
		for i, f := range fields {
			if i > 0 {
				keys.WriteString(", ")
			}
			keys.WriteString(f.key)
		}
		return d.errf(p.Line, "unknown field %q (%s fields: %s)", p.Key, section, keys.String())
	}
	return nil
}

// set parses n into dst by dst's type (see field).
func (d *dec) set(n *yamlite.Node, dst any, what name) (err error) {
	switch dst := dst.(type) {
	case func(*yamlite.Node) error:
		err = dst(n)
	case *string:
		*dst, err = d.scalar(n, what)
	case *int:
		*dst, err = d.intVal(n, what)
	case *count:
		var v int
		if v, err = d.intVal(n, what); err == nil && (v < 0 || v > maxCount) {
			err = d.errf(n.Line, "%s: %d is out of range (0..%d)", what, v, maxCount)
		}
		*dst = count(v)
	case *float64:
		*dst, err = d.floatVal(n, what)
	case *bool:
		var s string
		if s, err = d.scalar(n, what); err == nil && s != "true" && s != "false" {
			err = d.errf(n.Line, "%s: %q is not true/false", what, s)
		}
		*dst = s == "true"
	case *byteSize:
		var v int
		v, err = d.bytesVal(n, what)
		*dst = byteSize(v)
	case *sim.Duration:
		var us float64
		if us, err = d.floatVal(n, what); err == nil && us < 0 {
			err = d.errf(n.Line, "%s: must be >= 0", what)
		}
		*dst = sim.Duration(us * float64(sim.Microsecond))
	case *[]int:
		if err = d.wantSeq(n, what); err != nil {
			return err
		}
		for _, it := range n.Items {
			v, err := d.bytesVal(it, what)
			if err != nil {
				return err
			}
			*dst = append(*dst, v)
		}
	case *map[string]string:
		if err = d.wantMap(n, what); err != nil {
			return err
		}
		*dst = map[string]string{}
		for _, p := range n.Pairs {
			if (*dst)[p.Key], err = d.scalar(p.Val, name{what.String(), p.Key}); err != nil {
				return err
			}
		}
	case **ethernet.LinkConfig:
		*dst, err = d.decodeLink(n, what.String())
	case *policy.Policy:
		var s string
		if s, err = d.scalar(n, what); err == nil {
			var ok bool
			if *dst, ok = policy.ByName(s); !ok {
				err = d.unknown(n, what, s, policy.Names())
			}
		}
	// Each enum ends at its last value.
	case *FaultKind:
		err = enumVal(d, n, what, dst, FaultBudgetShrink)
	case *chaos.Class:
		err = enumVal(d, n, what, dst, chaos.BudgetShrink)
	case *chaos.Arrival:
		err = enumVal(d, n, what, dst, chaos.Burst)
	case *startPattern:
		err = enumVal(d, n, what, dst, startWave)
	default:
		panic("scenario: spec field " + what.String() + " has no parser for its type")
	}
	return err
}

// enumVal sets dst to the value in 0..last whose String() n names.
func enumVal[E interface {
	~int
	String() string
}](d *dec, n *yamlite.Node, what name, dst *E, last E) error {
	s, err := d.scalar(n, what)
	if err != nil {
		return err
	}
	for e := E(0); e <= last; e++ {
		if e.String() == s {
			*dst = e
			return nil
		}
	}
	var names []string
	for e := E(0); e <= last; e++ {
		names = append(names, e.String())
	}
	return d.unknown(n, what, s, names)
}

// unknown rejects a name that is none of names.
func (d *dec) unknown(n *yamlite.Node, what name, s string, names []string) error {
	return d.errf(n.Line, "%s: unknown %s %q (one of: %s)", what, what.key, s, strings.Join(names, ", "))
}

// scalar asserts the node is a scalar and returns its value.
func (d *dec) scalar(n *yamlite.Node, what name) (string, error) {
	if n.Kind != yamlite.Scalar {
		return "", d.errf(n.Line, "%s: expected a scalar value, got a %s", what, n.Kind)
	}
	return n.Value, nil
}

func (d *dec) intVal(n *yamlite.Node, what name) (int, error) {
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

func (d *dec) floatVal(n *yamlite.Node, what name) (float64, error) {
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

func (d *dec) bytesVal(n *yamlite.Node, what name) (int, error) {
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

func (d *dec) wantMap(n *yamlite.Node, what name) error {
	if n.Kind != yamlite.Map {
		return d.errf(n.Line, "%s: expected a mapping, got a %s", what, n.Kind)
	}
	return nil
}

func (d *dec) wantSeq(n *yamlite.Node, what name) error {
	if n.Kind != yamlite.Seq {
		return d.errf(n.Line, "%s: expected a sequence, got a %s", what, n.Kind)
	}
	return nil
}

// items decodes sequence n by calling each on every item.
func (d *dec) items(n *yamlite.Node, what string, each func(it *yamlite.Node) error) error {
	if err := d.wantSeq(n, name{key: what}); err != nil {
		return err
	}
	for _, it := range n.Items {
		if err := each(it); err != nil {
			return err
		}
	}
	return nil
}

// keyLine returns the line of key in mapping n, or n's own line when the
// key is absent.
func keyLine(n *yamlite.Node, key string) int {
	for _, p := range n.Pairs {
		if p.Key == key {
			return p.Line
		}
	}
	return n.Line
}

// index reads a node or rank index into dst and remembers it, with its
// line, for the range check against the resolved cluster.
func (d *dec) index(n *yamlite.Node, what string, rank bool, dst *int) (err error) {
	*dst, err = d.intVal(n, name{key: what})
	d.indexRefs = append(d.indexRefs, indexRef{what, rank, *dst, n.Line})
	return err
}

// LoadSpecData decodes a spec into a Scenario without registering it.
func LoadSpecData(src []byte, file string) (*Scenario, error) {
	d, err := loadSpec(src, file)
	if err != nil {
		return nil, err
	}
	return d.s, nil
}

// loadSpec decodes and checks a spec, returning the decoder state.
func loadSpec(src []byte, file string) (*dec, error) {
	root, err := yamlite.Parse(src, file)
	if err != nil {
		return nil, err
	}
	s := &Scenario{}
	d := &dec{file: file, s: s}
	if err := d.walk(root, "top-level", "", []field{
		{"name", &s.Name},
		{"description", &s.Description},
		{"cluster", d.decodeCluster},
		{"fleet", d.decodeFleet},
		{"cases", d.decodeCases},
		{"sizes", &s.Sizes},
		{"quick_sizes", &s.QuickSizes},
		{"metric", &s.Metric},
		{"workload", d.decodeWorkload},
		{"budget_us", &s.Budget},
		{"faults", d.decodeFaults},
		{"chaos", d.decodeChaos},
		{"assertions", d.decodeAssertions},
	}); err != nil {
		return nil, err
	}
	if s.Name == "" {
		return nil, d.errf(root.Line, "spec is missing the required `name` field")
	}
	if d.work == nil {
		return nil, d.errf(root.Line, "spec %q is missing the required `workload` section", s.Name)
	}
	if _, ok := root.Get("cluster"); ok && d.fleet != nil {
		return nil, d.errf(keyLine(root, "fleet"), "spec %q sets both `cluster` (line %d) and `fleet`: pick one", s.Name, keyLine(root, "cluster"))
	}
	if err := d.crossCheck(root); err != nil {
		return nil, err
	}
	if f := d.fleet; f != nil && (f.startup.pattern != startInstant || f.startup.jitter > 0) {
		st, total, inner := f.startup, f.total, s.Workload
		s.Workload = func(c *mpi.Comm, cr *CaseRun) {
			if delay := startupDelay(st, c.Endpoint().Node().ID, total, cr.Seed); delay > 0 {
				c.Compute(delay)
			}
			inner(c, cr)
		}
	}
	return d, nil
}

// crossCheck validates what spans sections once the walk is done: the
// sweep sizes the workload reads, SLO tenant names, the fleet's
// allocation (which it resolves onto the cluster), and every node and
// rank index and the kv server count against the resolved cluster.
func (d *dec) crossCheck(root *yamlite.Node) error {
	s, w := d.s, d.work
	if w.needsSizes {
		if len(s.Sizes) == 0 {
			return d.errf(w.node.Line, "workload kind %q reads the message size from the sweep: add a `sizes` list", w.kind)
		}
		for _, l := range [...]struct {
			key   string
			sizes []int
		}{{"sizes", s.Sizes}, {"quick_sizes", s.QuickSizes}} {
			for i, v := range l.sizes {
				if v < w.minSize {
					list, _ := root.Get(l.key)
					return d.errf(list.Items[i].Line, "%s: %d bytes is below the %d-byte minimum of workload kind %q", l.key, v, w.minSize, w.kind)
				}
			}
		}
	}
	for _, ref := range d.sloRefs {
		tenant := ref.slo.Tenant
		if w.kind != "kv" {
			return d.errf(ref.line, "slo %q: SLO assertions need a kv workload (this spec's workload kind is %q)", tenant, w.kind)
		}
		found := false
		for _, t := range w.kv.Tenants {
			found = found || t.Name == tenant
		}
		if !found {
			var names []string
			for _, t := range w.kv.Tenants {
				names = append(names, t.Name)
			}
			return d.errf(ref.line, "slo %q: no such tenant in the kv workload (tenants: %s)", tenant, strings.Join(names, ", "))
		}
	}
	if f := d.fleet; f != nil {
		seen := map[string]bool{}
		for _, g := range f.groups {
			if seen[g.Name] {
				return d.errf(g.line, "fleet group %q: duplicate group name", g.Name)
			}
			seen[g.Name] = true
		}
		groups, err := f.resolve(d)
		if err != nil {
			return err
		}
		s.Cluster.Groups, s.Cluster.Link = groups, f.link
	}
	nodes, ranks := clusterSize(s.Cluster)
	for _, r := range d.indexRefs {
		limit, unit := nodes, "nodes"
		if r.rank {
			limit, unit = ranks, "ranks"
		}
		if r.index < 0 || r.index >= limit {
			return d.errf(r.line, "%s: %d is out of range (the cluster has %d %s)", r.what, r.index, limit, unit)
		}
	}
	if w.kind == "kv" {
		// kv.Run makes ranks 0..servers-1 the servers and the rest clients.
		if w.kv.Servers >= ranks {
			return d.errf(keyLine(w.node, "servers"), "workload.servers: %d leaves no client rank (the cluster has %d ranks)", w.kv.Servers, ranks)
		}
		s.Report = kvReport(w.kv, ranks)
	}
	return nil
}

// decodeCluster decodes the cluster: section into the base cluster.Config.
func (d *dec) decodeCluster(n *yamlite.Node) error {
	c := &d.s.Cluster
	return d.walk(n, "cluster", "cluster", []field{
		{"nodes", (*count)(&c.Nodes)},
		{"ranks_per_node", (*count)(&c.RanksPerNode)},
		{"ranks_per_proc", (*count)(&c.RanksPerProc)},
		{"endpoints_per_node", (*count)(&c.EndpointsPerNode)},
		{"nic_queues", (*count)(&c.NICQueues)},
		{"mem_frames", (*count)(&c.Mem.Frames)},
		{"link", &c.Link},
	})
}

// decodeLink decodes a link override block, starting from the default 10G
// link.
func (d *dec) decodeLink(n *yamlite.Node, path string) (*ethernet.LinkConfig, error) {
	l := ethernet.DefaultLinkConfig()
	if err := d.walk(n, path, path, []field{
		// The one-way latency is the engine lookahead, so it must be at
		// least 1ns.
		{"prop_delay_us", func(v *yamlite.Node) error {
			us, err := d.floatVal(v, name{path, "prop_delay_us"})
			if l.PropDelay = sim.Duration(us * float64(sim.Microsecond)); err == nil && l.PropDelay <= 0 {
				err = d.errf(v.Line, "%s.prop_delay_us: %g is below 1ns (the link latency is the engine lookahead)", path, us)
			}
			return err
		}},
		{"bytes_per_sec", &l.BytesPerSec},
		{"drop_prob", &l.DropProb},
	}); err != nil {
		return nil, err
	}
	if l.BytesPerSec <= 0 {
		return nil, d.errf(keyLine(n, "bytes_per_sec"), "%s.bytes_per_sec: %g must be > 0", path, l.BytesPerSec)
	}
	return &l, nil
}

// decodeCases decodes the case matrix. A zero protocol knob keeps omx's
// default.
func (d *dec) decodeCases(n *yamlite.Node) error {
	return d.items(n, "cases", func(it *yamlite.Node) error {
		c := Case{OMX: omx.DefaultConfig(nil, false)}
		if err := d.walk(it, "case", "case", []field{
			{"label", &c.Label},
			{"policy", &c.OMX.Policy},
			{"cache", &c.OMX.CacheEnabled},
			{"use_ioat", &c.OMX.UseIOAT},
			{"retransmit_timeout_us", &c.OMX.RetransmitTimeout},
			{"peer_dead_timeout_us", &c.OMX.PeerDeadTimeout},
			{"pinned_page_limit", &c.OMX.PinnedPageLimit},
			{"params", &c.Params},
		}); err != nil {
			return err
		}
		if c.Label == "" {
			return d.errf(it.Line, "case is missing the required `label` field")
		}
		if c.OMX.Policy == nil {
			return d.errf(it.Line, "case %q is missing the required `policy` field", c.Label)
		}
		for _, prev := range d.s.Cases {
			if prev.Label == c.Label {
				return d.errf(it.Line, "case %q: duplicate case label", c.Label)
			}
		}
		d.s.Cases = append(d.s.Cases, c)
		return nil
	})
}

// decodeFaults decodes the timed one-shot fault events.
func (d *dec) decodeFaults(n *yamlite.Node) error {
	return d.items(n, "faults", func(it *yamlite.Node) error {
		d.s.Faults = append(d.s.Faults, Fault{})
		f := &d.s.Faults[len(d.s.Faults)-1]
		if err := d.walk(it, "fault", "fault", []field{
			{"at_us", &f.At},
			{"kind", &f.Kind},
			{"rank", func(v *yamlite.Node) error { return d.index(v, "fault.rank", true, &f.Rank) }},
			{"buffer", &f.Buffer},
			{"util", &f.Util},
			{"for_us", &f.For},
			{"node", func(v *yamlite.Node) error { return d.index(v, "fault.node", false, &f.Node) }},
			{"frames", &f.Frames},
			{"extra_latency_us", &f.Degrade.ExtraLatency},
			{"bandwidth_factor", &f.Degrade.BandwidthFactor},
			{"drop_prob", &f.Degrade.DropProb},
		}); err != nil {
			return err
		}
		if _, ok := it.Get("kind"); !ok {
			return d.errf(it.Line, "fault is missing the required `kind` field")
		}
		if !(f.Util >= 0 && f.Util <= 1) {
			return d.errf(keyLine(it, "util"), "fault.util: %v is out of range (0..1)", f.Util)
		}
		return nil
	})
}

// decodeChaos decodes the chaos profile section.
func (d *dec) decodeChaos(n *yamlite.Node) error {
	prof := &chaos.Profile{}
	d.s.Chaos = prof
	if err := d.walk(n, "chaos", "chaos", []field{
		{"horizon_us", &prof.Horizon},
		{"interval_us", &prof.Interval},
		{"specs", func(v *yamlite.Node) error { return d.items(v, "chaos.specs", d.decodeChaosSpec) }},
	}); err != nil {
		return err
	}
	if prof.Horizon <= 0 {
		return d.errf(n.Line, "chaos.horizon_us must be > 0")
	}
	if len(prof.Specs) == 0 {
		return d.errf(n.Line, "chaos: at least one spec is required")
	}
	return nil
}

// decodeChaosSpec decodes one chaos spec into the profile.
func (d *dec) decodeChaosSpec(it *yamlite.Node) error {
	prof := d.s.Chaos
	prof.Specs = append(prof.Specs, chaos.Spec{})
	cs := &prof.Specs[len(prof.Specs)-1]
	if err := d.walk(it, "chaos spec", "chaos", []field{
		{"class", &cs.Class},
		{"arrival", &cs.Arrival},
		{"mean_gap_us", &cs.MeanGap},
		{"jitter", &cs.Jitter},
		{"duration_us", &cs.Duration},
		{"duration_jitter", &cs.DurationJitter},
		{"burst_len", &cs.BurstLen},
		{"nodes", func(v *yamlite.Node) error {
			return d.items(v, "chaos.nodes", func(nn *yamlite.Node) error {
				var node int
				err := d.index(nn, "chaos.nodes", false, &node)
				cs.Nodes = append(cs.Nodes, node)
				return err
			})
		}},
		{"extra_latency_us", &cs.ExtraLatency},
		{"bandwidth_factor", &cs.BandwidthFactor},
		{"drop_prob", &cs.DropProb},
		{"shrink_factor", &cs.ShrinkFactor},
		{"frames", &cs.Frames},
	}); err != nil {
		return err
	}
	if _, ok := it.Get("class"); !ok {
		return d.errf(it.Line, "chaos spec is missing the required `class` field")
	}
	if cs.MeanGap <= 0 {
		return d.errf(it.Line, "chaos spec: `mean_gap_us` must be > 0")
	}
	return nil
}

// LoadSpecFile reads and decodes a spec file.
func LoadSpecFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return LoadSpecData(data, path)
}

// LoadAndRegisterSpecFile loads a spec file and registers the scenario
// with SourceFile. A name collision — with a builtin or an earlier file —
// is a hard error, never a silent shadow.
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

// ValidateSpecFile loads a spec file without registering it,
// additionally reporting a name collision with the live registry as an
// error (what registration would reject).
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
