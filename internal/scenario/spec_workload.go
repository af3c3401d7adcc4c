// spec_workload.go — the workload-kind registry of the spec format.
// Every kind lowers onto a workload constructor of the builtin families
// (pingPongWorkload, pressureWorkload, chaosWorkload, fleetWorkload,
// kvWorkload), shared with the Go builtins that run the same workload.
package scenario

import (
	"omxsim/internal/kv"
	"omxsim/internal/sim"
	"omxsim/internal/yamlite"
)

// workloadSpec is the decoded workload: section.
type workloadSpec struct {
	kind string
	line int
	// workload is the compiled per-rank body.
	workload Workload
	// quickWorkload, when non-nil, replaces workload under -quick (a
	// spec set quick_* overrides).
	quickWorkload Workload
	// kvCfg is set for the kv kind: the compiler derives the Report hook
	// (which needs the cluster's total rank count) from it, and the SLO
	// cross-reference check reads its tenant list.
	kvCfg *kv.Config
	// needsSizes marks kinds that read the message size from the sweep.
	needsSizes bool
}

// decodeWorkload parses the workload: section.
func (d *dec) decodeWorkload(n *yamlite.Node, sp *Spec) error {
	if err := d.wantMap(n, "workload"); err != nil {
		return err
	}
	kindNode, ok := n.Get("kind")
	if !ok {
		return d.errf(n.Line, "workload is missing the required `kind` field")
	}
	kind, err := d.str(kindNode, "workload.kind")
	if err != nil {
		return err
	}
	w := &workloadSpec{kind: kind, line: n.Line}
	switch kind {
	case "pingpong":
		err = d.decodePingPong(n, w)
	case "pairwise-stream":
		err = d.decodePairwiseStream(n, w)
	case "pressure":
		err = d.decodePressure(n, w)
	case "chaos-pingpong":
		err = d.decodeChaosPingPong(n, w)
	case "kv":
		err = d.decodeKV(n, w)
	default:
		return d.errf(kindNode.Line, "workload.kind: unknown kind %q (kinds: pingpong, pairwise-stream, pressure, chaos-pingpong, kv)", kind)
	}
	if err != nil {
		return err
	}
	sp.workload = w
	return nil
}

// decodePingPong: IMB PingPong at the sweep size (no parameters).
func (d *dec) decodePingPong(n *yamlite.Node, w *workloadSpec) error {
	for _, p := range n.Pairs {
		if p.Key != "kind" {
			return d.errf(p.Line, "workload pingpong: unknown field %q (pingpong takes no parameters; the message size comes from `sizes`)", p.Key)
		}
	}
	w.workload = pingPongWorkload
	w.needsSizes = true
	return nil
}

// decodePairwiseStream: the fleet streaming workload.
func (d *dec) decodePairwiseStream(n *yamlite.Node, w *workloadSpec) error {
	rounds, quickRounds := 0, 0
	for _, p := range n.Pairs {
		var err error
		switch p.Key {
		case "kind":
		case "rounds":
			rounds, err = d.intVal(p.Val, "workload.rounds")
		case "quick_rounds":
			quickRounds, err = d.intVal(p.Val, "workload.quick_rounds")
		default:
			return d.errf(p.Line, "workload pairwise-stream: unknown field %q (fields: rounds, quick_rounds)", p.Key)
		}
		if err != nil {
			return err
		}
	}
	if rounds <= 0 {
		return d.errf(n.Line, "workload pairwise-stream: `rounds` must be > 0")
	}
	w.workload = fleetWorkload(rounds)
	if quickRounds > 0 {
		w.quickWorkload = fleetWorkload(quickRounds)
	}
	w.needsSizes = true
	return nil
}

// decodePressure: the allocator-churn workload of the pressure family.
func (d *dec) decodePressure(n *yamlite.Node, w *workloadSpec) error {
	var (
		rounds, commBytes, churnBytes int
		churnCompute                  sim.Duration
	)
	for _, p := range n.Pairs {
		var err error
		switch p.Key {
		case "kind":
		case "rounds":
			rounds, err = d.intVal(p.Val, "workload.rounds")
		case "comm_bytes":
			commBytes, err = d.bytesVal(p.Val, "workload.comm_bytes")
		case "churn_bytes":
			churnBytes, err = d.bytesVal(p.Val, "workload.churn_bytes")
		case "churn_compute_us":
			churnCompute, err = d.durUS(p.Val, "workload.churn_compute_us")
		default:
			return d.errf(p.Line, "workload pressure: unknown field %q (fields: rounds, comm_bytes, churn_bytes, churn_compute_us)", p.Key)
		}
		if err != nil {
			return err
		}
	}
	if rounds <= 0 || commBytes <= 0 || churnBytes <= 0 {
		return d.errf(n.Line, "workload pressure: `rounds`, `comm_bytes`, and `churn_bytes` must all be > 0")
	}
	w.workload = pressureWorkload(rounds, commBytes, churnBytes, churnCompute)
	return nil
}

// decodeChaosPingPong: the error-tolerant ping-pong of the chaos family.
func (d *dec) decodeChaosPingPong(n *yamlite.Node, w *workloadSpec) error {
	var (
		rounds, quickRounds, bytes int
		recvTimeout                sim.Duration
	)
	for _, p := range n.Pairs {
		var err error
		switch p.Key {
		case "kind":
		case "rounds":
			rounds, err = d.intVal(p.Val, "workload.rounds")
		case "quick_rounds":
			quickRounds, err = d.intVal(p.Val, "workload.quick_rounds")
		case "bytes":
			bytes, err = d.bytesVal(p.Val, "workload.bytes")
		case "recv_timeout_us":
			recvTimeout, err = d.durUS(p.Val, "workload.recv_timeout_us")
		default:
			return d.errf(p.Line, "workload chaos-pingpong: unknown field %q (fields: rounds, quick_rounds, bytes, recv_timeout_us)", p.Key)
		}
		if err != nil {
			return err
		}
	}
	if rounds <= 0 || bytes <= 0 || recvTimeout <= 0 {
		return d.errf(n.Line, "workload chaos-pingpong: `rounds`, `bytes`, and `recv_timeout_us` must all be > 0")
	}
	w.workload = chaosWorkload(rounds, bytes, recvTimeout)
	if quickRounds > 0 {
		w.quickWorkload = chaosWorkload(quickRounds, bytes, recvTimeout)
	}
	return nil
}

// decodeKV: the kvserve workload (open-loop tenant traffic against
// storage-server ranks). The Report hook is derived at compile time,
// when the cluster's rank count is known.
func (d *dec) decodeKV(n *yamlite.Node, w *workloadSpec) error {
	cfg := kv.Config{}
	for _, p := range n.Pairs {
		var err error
		switch p.Key {
		case "kind":
		case "servers":
			cfg.Servers, err = d.intVal(p.Val, "workload.servers")
		case "keys":
			cfg.Keys, err = d.intVal(p.Val, "workload.keys")
		case "value_bytes":
			cfg.ValueBytes, err = d.bytesVal(p.Val, "workload.value_bytes")
		case "theta":
			cfg.Theta, err = d.floatVal(p.Val, "workload.theta")
		case "workers":
			cfg.Workers, err = d.intVal(p.Val, "workload.workers")
		case "churn_bytes":
			cfg.ChurnBytes, err = d.bytesVal(p.Val, "workload.churn_bytes")
		case "churn_period_us":
			cfg.ChurnPeriod, err = d.durUS(p.Val, "workload.churn_period_us")
		case "replication":
			cfg.Replication, err = d.intVal(p.Val, "workload.replication")
		case "failover_timeout_us":
			cfg.FailoverTimeout, err = d.durUS(p.Val, "workload.failover_timeout_us")
		case "outage_start_us":
			cfg.OutageStart, err = d.durUS(p.Val, "workload.outage_start_us")
		case "outage_end_us":
			cfg.OutageEnd, err = d.durUS(p.Val, "workload.outage_end_us")
		case "tenants":
			err = d.decodeTenants(p.Val, &cfg)
		default:
			return d.errf(p.Line, "workload kv: unknown field %q (fields: servers, keys, value_bytes, theta, workers, churn_bytes, churn_period_us, replication, failover_timeout_us, outage_start_us, outage_end_us, tenants)", p.Key)
		}
		if err != nil {
			return err
		}
	}
	if cfg.Servers <= 0 || cfg.Keys <= 0 {
		return d.errf(n.Line, "workload kv: `servers` and `keys` must be > 0")
	}
	if len(cfg.Tenants) == 0 {
		return d.errf(n.Line, "workload kv: at least one tenant is required")
	}
	if cfg.Replication > cfg.Servers {
		return d.errf(n.Line, "workload kv: `replication` %d exceeds `servers` %d", cfg.Replication, cfg.Servers)
	}
	w.kvCfg = &cfg
	// value_bytes omitted → the cell's sweep size is the value size.
	w.needsSizes = cfg.ValueBytes == 0
	w.workload = kvWorkload(cfg)
	return nil
}

func (d *dec) decodeTenants(n *yamlite.Node, cfg *kv.Config) error {
	if err := d.wantSeq(n, "workload.tenants"); err != nil {
		return err
	}
	for _, it := range n.Items {
		if err := d.wantMap(it, "tenant"); err != nil {
			return err
		}
		t := kv.Tenant{}
		rateLine := it.Line
		for _, p := range it.Pairs {
			var err error
			switch p.Key {
			case "name":
				t.Name, err = d.str(p.Val, "tenant.name")
			case "ops":
				t.Ops, err = d.intVal(p.Val, "tenant.ops")
			case "rate":
				rateLine = p.Line
				t.Rate, err = d.floatVal(p.Val, "tenant.rate")
			case "get_frac":
				t.GetFrac, err = d.floatVal(p.Val, "tenant.get_frac")
			case "max_inflight":
				t.MaxInflight, err = d.intVal(p.Val, "tenant.max_inflight")
			default:
				return d.errf(p.Line, "tenant: unknown field %q (fields: name, ops, rate, get_frac, max_inflight)", p.Key)
			}
			if err != nil {
				return err
			}
		}
		if t.Name == "" {
			return d.errf(it.Line, "tenant is missing the required `name` field")
		}
		// Arrival gaps are exponential draws divided by the rate: a zero
		// rate makes them infinite and the run issues every op at once.
		if !(t.Rate > 0) {
			return d.errf(rateLine, "tenant %q: rate must be > 0 (got %v)", t.Name, t.Rate)
		}
		cfg.Tenants = append(cfg.Tenants, t)
	}
	return nil
}
