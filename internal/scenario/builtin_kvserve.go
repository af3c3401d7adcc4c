// builtin_kvserve.go holds the workload, report hook and checks of the
// kvserve-* scenario family (specs/kvserve-*.yaml): an RDMA-backed
// key-value serving tier where client ranks drive open-loop Zipfian
// get/put traffic against server ranks whose value heaps live under the
// registration cache and pinning policies. The report is tail latency —
// HDR-histogram percentiles per operation class and per tenant — instead
// of the mean-throughput tables of the paper's benchmarks: the modern
// serving question the ROADMAP's "production serving workload" item asks
// of the same pinning trade-offs.
package scenario

import (
	"fmt"

	"omxsim/internal/kv"
	"omxsim/internal/mpi"
	"omxsim/internal/report"
)

// kvWorkload adapts kv.Run to the declarative runner: the CaseRun is the
// workload's stash-and-note sink, and the cell's seed drives every
// per-client random stream.
func kvWorkload(cfg kv.Config) Workload {
	return func(c *mpi.Comm, cr *CaseRun) {
		kv.Run(c, cr, cr.Seed, kvSized(cfg, cr.Size))
	}
}

// kvSized resolves a size-sweep cell: a config with ValueBytes 0 takes the
// cell's sweep size as the value size.
func kvSized(cfg kv.Config, size int) kv.Config {
	if cfg.ValueBytes == 0 {
		cfg.ValueBytes = size
	}
	return cfg
}

// kvQuantiles are the reported percentiles (metric suffix, q).
var kvQuantiles = []struct {
	suffix string
	q      float64
}{
	{"p50_us", 0.5},
	{"p99_us", 0.99},
	{"p999_us", 0.999},
}

// kvReport builds the scenario Report hook: it folds every rank's stashed
// Stats into "kv."-prefixed percentile metrics (per class and per tenant,
// exact merges in rank order, so shard-count invariant), plain count
// metrics for the results table, and one latency table across all cells.
func kvReport(cfg kv.Config, ranks int) func(run *Run) {
	return func(run *Run) {
		t := report.Table{
			Title:   "latency (simulated µs)",
			Columns: []string{"case", "class", "p50", "p99", "p999", "max", "n"},
		}
		for _, cr := range run.Cases {
			m := kv.Collect(cfg, ranks, func(r int) *kv.Stats {
				st, _ := cr.Stashed(kv.StashKey(r)).(*kv.Stats)
				return st
			})
			addRow := func(label string, h *report.Hist) {
				for _, kq := range kvQuantiles {
					cr.Metric("kv."+label+"."+kq.suffix, h.QuantileUS(kq.q))
				}
				cr.Metric("kv."+label+".max_us", h.MaxUS())
				t.Rows = append(t.Rows, []string{
					cr.id(), label,
					report.F(h.QuantileUS(0.5), 1),
					report.F(h.QuantileUS(0.99), 1),
					report.F(h.QuantileUS(0.999), 1),
					report.F(h.MaxUS(), 1),
					report.D(int64(h.Count())),
				})
			}
			addRow("get", &m.Get)
			addRow("put", &m.Put)
			if cfg.OutageEnd > 0 {
				addRow("outage.get", &m.OutageGet)
				addRow("outage.put", &m.OutagePut)
				cr.Metric("kv.failovers", float64(m.Failovers))
			}
			issued, ok, rejected, errs, badvals := 0, 0, 0, m.ServerErrs, 0
			for ti := range m.Tenants {
				tm := &m.Tenants[ti]
				var all report.Hist
				all.Merge(&tm.Get)
				all.Merge(&tm.Put)
				addRow(tm.Name, &all)
				cr.Metric("kv."+tm.Name+".issued", float64(tm.Issued))
				cr.Metric("kv."+tm.Name+".rejected", float64(tm.Rejected))
				issued += tm.Issued
				ok += tm.OK
				rejected += tm.Rejected
				errs += tm.Errors
				badvals += tm.BadVals
			}
			cr.Metric("ops_issued", float64(issued))
			cr.Metric("ops_ok", float64(ok))
			cr.Metric("ops_rejected", float64(rejected))
			cr.Metric("ops_err", float64(errs))
			cr.Metric("ops_badval", float64(badvals))
		}
		run.Result.AddTable(t)
	}
}

// KVSLO is one tenant's service-level objective in a kvserve scenario:
// upper bounds on the tenant's latency percentiles (µs of simulated time,
// classes merged; 0 = unchecked) plus admission-control expectations.
// Because the simulation is deterministic, these are exact regression
// gates, not statistical ones — a bound that holds, holds on every run.
type KVSLO struct {
	Tenant        string
	P50US         float64
	P99US         float64
	P999US        float64
	MaxRejectFrac float64 // rejected/issued must stay at or below (only checked when > 0)
	MinRejects    float64 // rejected must reach (abusive tenants must trip admission)
}

// KVSLOBlock renders per-tenant SLOs as one assertion per tenant, checked
// on every case cell. See docs/scenario-authoring.md for the recipe.
func KVSLOBlock(slos ...KVSLO) []Assertion {
	var out []Assertion
	for _, s := range slos {
		s := s
		name := fmt.Sprintf("SLO %s", s.Tenant)
		out = append(out, EachCase(name, func(cr *CaseRun) (bool, string) {
			for _, b := range []struct {
				suffix string
				bound  float64
			}{
				{"p50_us", s.P50US}, {"p99_us", s.P99US}, {"p999_us", s.P999US},
			} {
				if b.bound <= 0 {
					continue
				}
				key := "kv." + s.Tenant + "." + b.suffix
				v, ok := cr.Metrics[key]
				if !ok {
					return false, fmt.Sprintf("metric %q not recorded", key)
				}
				if v > b.bound {
					return false, fmt.Sprintf("%s = %.1fµs > %.1fµs", key, v, b.bound)
				}
			}
			issued := cr.Metrics["kv."+s.Tenant+".issued"]
			rejected := cr.Metrics["kv."+s.Tenant+".rejected"]
			if s.MaxRejectFrac > 0 && issued > 0 && rejected/issued > s.MaxRejectFrac {
				return false, fmt.Sprintf("reject fraction %.3f > %.3f (%g/%g)",
					rejected/issued, s.MaxRejectFrac, rejected, issued)
			}
			if s.MinRejects > 0 && rejected < s.MinRejects {
				return false, fmt.Sprintf("rejected = %g < %g: admission control never engaged", rejected, s.MinRejects)
			}
			return true, ""
		}))
	}
	return out
}

// kvTailDifferential asserts the family's headline claim: under memory
// pressure the no-pin ODP backend pays a tail-latency premium over a
// pinned backend, because reclaim steals its value-heap pages and every
// cold get eats device faults and swap-ins on the critical path. The
// check is vacuous under a -policy filter that drops either cell.
func kvTailDifferential(metric, pinnedPolicy, odpPolicy string, factor float64) Assertion {
	name := fmt.Sprintf("%s tail: %s >= %.2fx %s", metric, odpPolicy, factor, pinnedPolicy)
	return Assertion{Name: name, Check: func(run *Run) (bool, string) {
		var pinned, odp *CaseRun
		for _, cr := range run.Cases {
			switch cr.PolicyName {
			case pinnedPolicy:
				pinned = cr
			case odpPolicy:
				odp = cr
			}
		}
		if pinned == nil || odp == nil {
			return true, "" // policy filter dropped a side
		}
		p, o := pinned.Metrics[metric], odp.Metrics[metric]
		if p <= 0 {
			return false, fmt.Sprintf("%s: %s = %g", pinnedPolicy, metric, p)
		}
		if o < p*factor {
			return false, fmt.Sprintf("%s %.1fµs < %.2f x %s %.1fµs", odpPolicy, o, factor, pinnedPolicy, p)
		}
		return true, ""
	}}
}

// kvCleanRun asserts no operation was lost to anything but the workload's
// own admission control: protocol errors and payload corruption are zero
// and every accepted operation completed.
func kvCleanRun() Assertion {
	return EachCase("no protocol errors or corrupt values", func(cr *CaseRun) (bool, string) {
		if e := cr.Metrics["ops_err"]; e != 0 {
			return false, fmt.Sprintf("ops_err = %g", e)
		}
		if b := cr.Metrics["ops_badval"]; b != 0 {
			return false, fmt.Sprintf("ops_badval = %g", b)
		}
		want := cr.Metrics["ops_issued"] - cr.Metrics["ops_rejected"]
		if got := cr.Metrics["ops_ok"]; got != want {
			return false, fmt.Sprintf("ops_ok = %g, want issued-rejected = %g", got, want)
		}
		return true, ""
	})
}
