// spec_workload.go — the workload kinds of the spec format. Every kind
// lowers onto a workload constructor (pingPongWorkload, pressureWorkload,
// chaosWorkload, fleetWorkload, kvWorkload), shared with the Go builtins
// and tests that run the same workload.
package scenario

import (
	"omxsim/internal/kv"
	"omxsim/internal/mpi"
	"omxsim/internal/sim"
	"omxsim/internal/yamlite"
)

// workloadSpec is the decoded workload: section: its kind, the
// parameters the kinds take, and what the checks after the walk read.
type workloadSpec struct {
	node                         *yamlite.Node
	kind                         string
	rounds, quickRounds          int
	bytes, commBytes, churnBytes byteSize
	churnCompute, recvTimeout    sim.Duration
	kv                           kv.Config
	// needsSizes marks kinds that read the message size from the sweep;
	// minSize is the smallest size they can send.
	needsSizes bool
	minSize    int
}

// workloadKinds is the workload.kind table: each kind decodes its keys
// and sets the scenario's per-rank body.
var workloadKinds = []struct {
	name   string
	decode func(d *dec, w *workloadSpec) error
}{
	{"pingpong", (*dec).decodePingPong},
	{"pairwise-stream", (*dec).decodePairwiseStream},
	{"pressure", (*dec).decodePressure},
	{"chaos-pingpong", (*dec).decodeChaosPingPong},
	{"kv", (*dec).decodeKV},
}

// decodeWorkload decodes the workload: section by its kind.
func (d *dec) decodeWorkload(n *yamlite.Node) error {
	if err := d.wantMap(n, name{key: "workload"}); err != nil {
		return err
	}
	kindNode, ok := n.Get("kind")
	if !ok {
		return d.errf(n.Line, "workload is missing the required `kind` field")
	}
	w := &workloadSpec{node: n}
	d.work = w
	what := name{"workload", "kind"}
	var err error
	if w.kind, err = d.scalar(kindNode, what); err != nil {
		return err
	}
	for _, k := range workloadKinds {
		if k.name == w.kind {
			return k.decode(d, w)
		}
	}
	var names []string
	for _, k := range workloadKinds {
		names = append(names, k.name)
	}
	return d.unknown(kindNode, what, w.kind, names)
}

// withQuick runs quick instead of full under -quick, when quick is set.
func withQuick(full, quick Workload) Workload {
	if quick == nil {
		return full
	}
	return func(c *mpi.Comm, cr *CaseRun) {
		if cr.Quick {
			quick(c, cr)
		} else {
			full(c, cr)
		}
	}
}

// decodePingPong: IMB PingPong at the sweep size (no parameters).
func (d *dec) decodePingPong(w *workloadSpec) error {
	d.s.Workload = pingPongWorkload
	w.needsSizes = true
	return d.walk(w.node, "workload pingpong", "workload", []field{{"kind", &w.kind}})
}

// decodePairwiseStream: the fleet streaming workload.
func (d *dec) decodePairwiseStream(w *workloadSpec) error {
	if err := d.walk(w.node, "workload pairwise-stream", "workload", []field{
		{"kind", &w.kind},
		{"rounds", &w.rounds},
		{"quick_rounds", &w.quickRounds},
	}); err != nil {
		return err
	}
	if w.rounds <= 0 {
		return d.errf(w.node.Line, "workload pairwise-stream: `rounds` must be > 0")
	}
	var quick Workload
	if w.quickRounds > 0 {
		quick = fleetWorkload(w.quickRounds)
	}
	d.s.Workload = withQuick(fleetWorkload(w.rounds), quick)
	// Every rank mallocs a buffer of the sweep size.
	w.needsSizes, w.minSize = true, 1
	return nil
}

// fleetWorkload pairs rank i with rank i+size/2 (block rank placement
// puts every pair on different nodes) and streams `rounds` round trips of
// the cell's message size. Rank 0 records the fleet-aggregate throughput.
func fleetWorkload(rounds int) Workload {
	return func(c *mpi.Comm, cr *CaseRun) {
		half := c.Size() / 2
		peer := (c.Rank() + half) % c.Size()
		bytes := cr.Size
		tx := c.Malloc(bytes)
		rx := c.Malloc(bytes)
		c.Barrier()
		start := c.Now()
		for r := 0; r < rounds; r++ {
			if c.Rank() < half {
				c.Send(tx, bytes, peer, 7)
				c.Recv(rx, bytes, peer, 7)
			} else {
				c.Recv(rx, bytes, peer, 7)
				c.Send(tx, bytes, peer, 7)
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			elapsed := c.Now() - start
			// Every pair moves rounds*bytes in each direction: size/2
			// pairs * 2 directions = size transfers of rounds*bytes.
			total := float64(rounds) * float64(bytes) * float64(c.Size())
			cr.Metric("agg_mbps", total/elapsed.Seconds()/(1<<20))
		}
	}
}

// decodePressure: the allocator-churn workload of the pressure family.
func (d *dec) decodePressure(w *workloadSpec) error {
	if err := d.walk(w.node, "workload pressure", "workload", []field{
		{"kind", &w.kind},
		{"rounds", &w.rounds},
		{"comm_bytes", &w.commBytes},
		{"churn_bytes", &w.churnBytes},
		{"churn_compute_us", &w.churnCompute},
	}); err != nil {
		return err
	}
	if w.rounds <= 0 || w.commBytes <= 0 || w.churnBytes <= 0 {
		return d.errf(w.node.Line, "workload pressure: `rounds`, `comm_bytes`, and `churn_bytes` must all be > 0")
	}
	d.s.Workload = pressureWorkload(w.rounds, int(w.commBytes), int(w.churnBytes), w.churnCompute)
	return nil
}

// decodeChaosPingPong: the error-tolerant ping-pong of the chaos family.
func (d *dec) decodeChaosPingPong(w *workloadSpec) error {
	if err := d.walk(w.node, "workload chaos-pingpong", "workload", []field{
		{"kind", &w.kind},
		{"rounds", &w.rounds},
		{"quick_rounds", &w.quickRounds},
		{"bytes", &w.bytes},
		{"recv_timeout_us", &w.recvTimeout},
	}); err != nil {
		return err
	}
	if w.rounds <= 0 || w.bytes <= 0 || w.recvTimeout <= 0 {
		return d.errf(w.node.Line, "workload chaos-pingpong: `rounds`, `bytes`, and `recv_timeout_us` must all be > 0")
	}
	var quick Workload
	if w.quickRounds > 0 {
		quick = chaosWorkload(w.quickRounds, int(w.bytes), w.recvTimeout)
	}
	d.s.Workload = withQuick(chaosWorkload(w.rounds, int(w.bytes), w.recvTimeout), quick)
	return nil
}

// kvMinValue is the smallest kv value: each value starts with its 8-byte
// signature.
const kvMinValue = 8

// decodeKV: the kvserve workload (open-loop tenant traffic against
// storage-server ranks). The Report hook and the server-count check
// wait for the resolved cluster's rank count (crossCheck).
func (d *dec) decodeKV(w *workloadSpec) error {
	cfg := &w.kv
	if err := d.walk(w.node, "workload kv", "workload", []field{
		{"kind", &w.kind},
		{"servers", &cfg.Servers},
		{"keys", &cfg.Keys},
		{"value_bytes", (*byteSize)(&cfg.ValueBytes)},
		{"theta", &cfg.Theta},
		{"workers", &cfg.Workers},
		{"churn_bytes", (*byteSize)(&cfg.ChurnBytes)},
		{"churn_period_us", &cfg.ChurnPeriod},
		{"replication", &cfg.Replication},
		{"failover_timeout_us", &cfg.FailoverTimeout},
		{"outage_start_us", &cfg.OutageStart},
		{"outage_end_us", &cfg.OutageEnd},
		{"tenants", func(v *yamlite.Node) error { return d.items(v, "workload.tenants", d.decodeTenant) }},
	}); err != nil {
		return err
	}
	if cfg.Servers <= 0 || cfg.Keys <= 0 {
		return d.errf(w.node.Line, "workload kv: `servers` and `keys` must be > 0")
	}
	if len(cfg.Tenants) == 0 {
		return d.errf(w.node.Line, "workload kv: at least one tenant is required")
	}
	if cfg.Replication > cfg.Servers {
		return d.errf(w.node.Line, "workload kv: `replication` %d exceeds `servers` %d", cfg.Replication, cfg.Servers)
	}
	if cfg.ValueBytes > 0 && cfg.ValueBytes < kvMinValue {
		return d.errf(keyLine(w.node, "value_bytes"), "workload.value_bytes: %d bytes is below the %d-byte minimum (each value starts with its signature)", cfg.ValueBytes, kvMinValue)
	}
	// value_bytes omitted → the cell's sweep size is the value size.
	w.needsSizes, w.minSize = cfg.ValueBytes == 0, kvMinValue
	d.s.Workload = kvWorkload(*cfg)
	return nil
}

// decodeTenant decodes one kv tenant.
func (d *dec) decodeTenant(it *yamlite.Node) error {
	var t kv.Tenant
	if err := d.walk(it, "tenant", "tenant", []field{
		{"name", &t.Name},
		{"ops", &t.Ops},
		{"rate", &t.Rate},
		{"get_frac", &t.GetFrac},
		{"max_inflight", &t.MaxInflight},
	}); err != nil {
		return err
	}
	if t.Name == "" {
		return d.errf(it.Line, "tenant is missing the required `name` field")
	}
	// Arrival gaps are exponential draws divided by the rate: a zero rate
	// makes them infinite and the run issues every op at once.
	if !(t.Rate > 0) {
		return d.errf(keyLine(it, "rate"), "tenant %q: rate must be > 0 (got %v)", t.Name, t.Rate)
	}
	d.work.kv.Tenants = append(d.work.kv.Tenants, t)
	return nil
}
