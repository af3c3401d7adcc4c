// builtin_policies.go registers the policy-comparison scenario families:
// every registered pinning backend — the paper's four, the no-pin
// ideals, and the post-paper ODP and pin-ahead strategies — driven
// through the same workloads under each fault injector, plus the
// multi-tenant memory-pressure scenario. These are the experiments the
// pluggable policy layer exists for: adding a backend to the registry
// makes it comparable here without touching the driver.
package scenario

import (
	"fmt"

	"omxsim/internal/cluster"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

// fullPolicyMatrix is one case per built-in backend: the paper's Figure 7
// matrix plus permanent, the QsNet no-pinning ideal, NP-RDMA-style ODP,
// and eBPF-mm-style pin-ahead.
func fullPolicyMatrix() []Case {
	return append(figure7Matrix(),
		Case{Label: "permanent", OMX: omx.DefaultConfig(policy.Permanent, true)},
		Case{Label: "no-pinning", OMX: omx.DefaultConfig(policy.NoPinning, true)},
		Case{Label: "odp", OMX: omx.DefaultConfig(policy.ODP, true)},
		Case{Label: "pin-ahead", OMX: omx.DefaultConfig(policy.PinAhead, true)},
	)
}

// withAdviseHints sets the "advise" param on the pin-ahead cases. Only
// scenarios whose workloads actually issue c.Advise hints (streamWorkload,
// the multitenant workload) apply it — a case must not advertise
// user-guided hints the workload never sends.
func withAdviseHints(cases []Case) []Case {
	for i := range cases {
		if cases[i].OMX.PolicyLabel() == "pin-ahead" {
			if cases[i].Params == nil {
				cases[i].Params = map[string]string{}
			}
			cases[i].Params["advise"] = "1"
		}
	}
	return cases
}

// streamWorkload pushes iters messages of the sweep size from rank 0 to
// rank 1 and reports throughput in "mbps" on rank 0. With idle > 0 the
// stream pauses halfway and only then registers the "payload" buffers:
// buffer-targeted faults (which poll for registration) land inside the
// pause, hitting regions that sit idle — pinned under the decoupled
// policies, unpinned under pin-each-comm, merely resident under the
// no-pin backends — which is where the strategies diverge. Cases with
// the "advise" param issue pin-ahead hints before communicating.
func streamWorkload(iters int, idle sim.Duration) Workload {
	return func(c *mpi.Comm, cr *CaseRun) {
		n := cr.Size
		if n == 0 {
			n = 2 << 20
		}
		buf := c.Malloc(n)
		if idle == 0 {
			cr.RegisterBuffer(c.Rank(), "payload", buf, n)
		}
		if cr.Param("advise") != "" {
			c.Advise(buf, n) // user-guided pin-ahead hint
		}
		xfer := func(count int) {
			for i := 0; i < count; i++ {
				if c.Rank() == 0 {
					c.Send(buf, n, 1, 11)
				} else if c.Rank() == 1 {
					c.Recv(buf, n, 0, 11)
				}
			}
		}
		c.Barrier()
		start := c.Now()
		xfer(iters / 2)
		if idle > 0 {
			c.Barrier()
			cr.RegisterBuffer(c.Rank(), "payload", buf, n)
			c.Compute(idle)
			c.Barrier()
		}
		xfer(iters - iters/2)
		c.Barrier()
		if c.Rank() == 0 {
			elapsed := c.Now() - start
			cr.Metric("mbps", float64(iters)*float64(n)/elapsed.Seconds()/(1<<20))
		}
	}
}

func init() {
	const streamIters = 6

	// policy-swapout: swap pressure mid-stream. Pinned pages resist the
	// swap (that is what pinning buys); ODP pages are evicted and fault
	// back in on the next device access.
	MustRegister(&Scenario{
		Name:        "policy-swapout",
		Description: "Every pinning backend streaming through mid-run swap pressure on both buffers",
		Cases:       withAdviseHints(fullPolicyMatrix()),
		Sizes:       []int{2 << 20},
		Metric:      "mbps",
		Workload:    streamWorkload(streamIters, 2*sim.Millisecond),
		Faults: []Fault{
			{At: 100 * sim.Microsecond, Kind: FaultSwapOut, Rank: 0, Buffer: "payload"},
			{At: 150 * sim.Microsecond, Kind: FaultSwapOut, Rank: 1, Buffer: "payload"},
		},
		Assertions: []Assertion{
			Completed(),
			MetricPositive("mbps"),
			PinAccountingBalanced(),
			EachCaseWhere("odp services page faults", PolicyCases("odp"),
				func(cr *CaseRun) (bool, string) {
					if cr.Metrics["stats.odp_faults"] < 1 {
						return false, fmt.Sprintf("odp_faults = %g", cr.Metrics["stats.odp_faults"])
					}
					return true, ""
				}),
			EachCaseWhere("pin-ahead pins speculatively", PolicyCases("pin-ahead"),
				func(cr *CaseRun) (bool, string) {
					if cr.Metrics["stats.speculative_pins"] < 1 {
						return false, fmt.Sprintf("speculative_pins = %g", cr.Metrics["stats.speculative_pins"])
					}
					return true, ""
				}),
		},
	})

	// policy-fork: a fork mid-stream marks the address space COW; pinned
	// pages are copied eagerly (elevated GUP counts), unpinned pages of
	// declared regions see COW notifiers on the next write.
	MustRegister(&Scenario{
		Name:        "policy-fork",
		Description: "Every pinning backend streaming through a mid-run fork (COW) of both ranks",
		Cases:       withAdviseHints(fullPolicyMatrix()),
		Sizes:       []int{2 << 20},
		Metric:      "mbps",
		Workload:    streamWorkload(streamIters, 2*sim.Millisecond),
		Faults: []Fault{
			{At: 4 * sim.Millisecond, Kind: FaultFork, Rank: 0},
			{At: 4 * sim.Millisecond, Kind: FaultFork, Rank: 1},
		},
		Assertions: []Assertion{
			Completed(),
			MetricPositive("mbps"),
			PinAccountingBalanced(),
		},
	})

	// policy-flood: the §4.3 interrupt flood, now across every backend.
	// Policies that do kernel pin work on the flooded path suffer;
	// no-pin backends only pay protocol costs.
	MustRegister(&Scenario{
		Name:        "policy-flood",
		Description: "Every pinning backend streaming through a bottom-half interrupt-flood window",
		Cases:       withAdviseHints(fullPolicyMatrix()),
		Sizes:       []int{2 << 20},
		Metric:      "mbps",
		Workload:    streamWorkload(streamIters, 0),
		Faults: []Fault{
			{At: 500 * sim.Microsecond, Kind: FaultFlood, Util: 0.8, For: 3 * sim.Millisecond},
		},
		Assertions: []Assertion{
			Completed(),
			MetricPositive("mbps"),
			PinAccountingBalanced(),
		},
	})

	// multitenant: several ranks per node under a driver pinned-page
	// budget plus swap pressure — the memory-pressure regime where the
	// strategies genuinely diverge: LRU eviction churns the pinned
	// policies, ODP absorbs the pressure as faults, pin-ahead re-arms
	// its speculation after every eviction.
	tenantMatrix := func() []Case {
		withLimit := func(c Case) Case {
			c.OMX.PinnedPageLimit = 640 // 2.5 MiB per endpoint: less than two live buffers
			return c
		}
		return []Case{
			withLimit(Case{Label: "cache", OMX: omx.DefaultConfig(policy.OnDemand, true)}),
			withLimit(Case{Label: "overlapped-cache", OMX: omx.DefaultConfig(policy.Overlapped, true)}),
			withLimit(Case{Label: "pin-ahead", OMX: omx.DefaultConfig(policy.PinAhead, true),
				Params: map[string]string{"advise": "1"}}),
			withLimit(Case{Label: "odp", OMX: omx.DefaultConfig(policy.ODP, true)}),
			withLimit(Case{Label: "no-pinning", OMX: omx.DefaultConfig(policy.NoPinning, true)}),
		}
	}
	MustRegister(&Scenario{
		Name:        "multitenant",
		Description: "3 tenants per node under a pinned-page budget and swap pressure: eviction churn vs ODP faults vs speculation",
		Cluster:     cluster.Config{Nodes: 2, RanksPerNode: 3},
		Cases:       tenantMatrix(),
		Metric:      "mbps",
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			// Tenant i on node 0 (rank i) streams to its peer on node 1
			// (rank i+3) through two buffers alternately, so each
			// endpoint's working set exceeds the pinned-page budget and
			// the driver must evict between messages.
			const n = 2 << 20
			const rounds = 4
			half := c.Size()
			if half == 0 {
				half = 3
			} else {
				half /= 2
			}
			a, b := c.Malloc(n), c.Malloc(n)
			cr.RegisterBuffer(c.Rank(), "a", a, n)
			if cr.Param("advise") != "" {
				c.Advise(a, n)
				c.Advise(b, n)
			}
			c.Barrier()
			start := c.Now()
			for i := 0; i < rounds; i++ {
				buf := a
				if i%2 == 1 {
					buf = b
				}
				if c.Rank() < half {
					c.Send(buf, n, c.Rank()+half, 21)
				} else {
					c.Recv(buf, n, c.Rank()-half, 21)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				elapsed := c.Now() - start
				cr.Metric("mbps", float64(rounds)*float64(n)/elapsed.Seconds()/(1<<20))
			}
		},
		Faults: []Fault{
			{At: 2 * sim.Millisecond, Kind: FaultSwapOut, Rank: 4, Buffer: "a"},
		},
		Assertions: []Assertion{
			Completed(),
			MetricPositive("mbps"),
			PinAccountingBalanced(),
			EachCaseWhere("pinned-page budget forces LRU eviction",
				PolicyCases("on-demand", "overlapped", "pin-ahead"),
				func(cr *CaseRun) (bool, string) {
					if cr.Metrics["stats.lru_unpins"] < 1 {
						return false, fmt.Sprintf("lru_unpins = %g", cr.Metrics["stats.lru_unpins"])
					}
					return true, ""
				}),
			EachCaseWhere("no-pin backends never pin", PolicyCases("odp", "no-pinning"),
				func(cr *CaseRun) (bool, string) {
					if p := cr.Metrics["stats.pages_pinned"]; p != 0 {
						return false, fmt.Sprintf("pages_pinned = %g", p)
					}
					return true, ""
				}),
		},
	})
}
