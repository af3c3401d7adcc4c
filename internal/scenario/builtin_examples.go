// builtin_examples.go registers the walkthrough scenarios (`omxsim run
// quickstart`, pincache, rendezvous, adaptive, mixed-policy) — lifecycle
// demonstrations rather than paper figures — plus the declarative
// fault-injection showcase, faults.
package scenario

import (
	"omxsim/internal/cluster"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

func init() {
	// quickstart: one large message, three times, under the decoupled
	// pinning cache — one declaration, one pin, then cache hits.
	MustRegister(&Scenario{
		Name:        "quickstart",
		Description: "Three 4 MiB sends through the decoupled pinning cache: declare once, pin once, hit twice",
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 4 << 20
			buf := c.Malloc(n)
			cr.RegisterBuffer(c.Rank(), "payload", buf, n)
			switch c.Rank() {
			case 0:
				start := c.Now()
				for i := 0; i < 3; i++ {
					c.Send(buf, n, 1, 42)
				}
				cr.Metric("send_ms", (c.Now()-start).Seconds()*1e3)
			case 1:
				for i := 0; i < 3; i++ {
					c.Recv(buf, n, 0, 42)
				}
			}
		},
		Assertions: []Assertion{
			Completed(),
			MetricAtLeast("stats.cache_hits", 4),
			MetricBelow("stats.pin_ops", 5),
			MetricBelow("stats.declares", 3),
		},
	})

	// pincache: the full Figure 3 lifecycle — communicate, hit, then both
	// invalidation classes: a mapping-preserving mprotect (driver unpins,
	// the cached declaration survives, the next use hits and repins
	// transparently — the decoupling) and a free (the unmap notifier
	// drops the cached declaration, so the realloc'd buffer gets a fresh
	// one instead of a stale hit).
	MustRegister(&Scenario{
		Name:        "pincache",
		Description: "Figure 3 lifecycle: pin, cache hit, mprotect unpins and the next use repins; free drops the cached declaration so realloc re-declares cleanly",
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 2 << 20
			if c.Rank() == 1 {
				for i := 0; i < 4; i++ {
					buf := c.Malloc(n)
					c.Recv(buf, n, 0, 1)
					c.Free(buf)
				}
				return
			}
			buf := c.Malloc(n)
			c.Send(buf, n, 1, 1)
			c.Send(buf, n, 1, 1) // cache hit, region already pinned
			// The mprotect fault lands in this idle window: the MMU
			// notifier makes the driver unpin, but the mapping — and the
			// cached declaration over it — stays intact.
			cr.RegisterBuffer(0, "payload", buf, n)
			c.Compute(2 * sim.Millisecond)
			c.Send(buf, n, 1, 1) // cache hit again; the acquire repins
			// Free kills the mapping: the unmap notifier drops the cached
			// declaration, so the re-malloc'd buffer is declared afresh —
			// never served from the dead entry.
			c.Free(buf)
			c.Compute(1000)
			buf2 := c.Malloc(n)
			if buf2 != buf {
				cr.Note("allocator did not reuse the freed address (unexpected)")
			}
			c.Send(buf2, n, 1, 1)
		},
		Faults: []Fault{
			{At: 100 * sim.Microsecond, Kind: FaultMProtect, Rank: 0, Buffer: "payload"},
		},
		Assertions: []Assertion{
			Completed(),
			MetricAtLeast("stats.invalidate_hits", 2), // mprotect + unmap
			MetricAtLeast("stats.repins", 1),
			MetricAtLeast("stats.cache_hits", 2),
			MetricAtLeast("stats.cache_invalidations", 1),
			MetricBelow("stats.pin_failures", 1),
		},
	})

	// rendezvous: one 8 MiB rendezvous transfer under synchronous vs
	// overlapped pinning — Figure 2 vs Figure 5.
	MustRegister(&Scenario{
		Name:        "rendezvous",
		Description: "One 8 MiB rendezvous pull: synchronous pinning (Figure 2) vs overlapped pinning (Figure 5)",
		Cases: []Case{
			{Label: "pin-each-comm", OMX: omx.DefaultConfig(policy.PinEachComm, false)},
			{Label: "overlapped", OMX: omx.DefaultConfig(policy.Overlapped, false)},
		},
		Metric: "mbps",
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 8 << 20
			buf := c.Malloc(n)
			if c.Rank() == 0 {
				start := c.Now()
				c.Send(buf, n, 1, 7)
				elapsed := c.Now() - start
				cr.Metric("mbps", float64(n)/elapsed.Seconds()/(1<<20))
				cr.Metric("elapsed_ms", elapsed.Seconds()*1e3)
			} else {
				c.Recv(buf, n, 0, 7)
			}
		},
		Assertions: []Assertion{Completed(), MetricPositive("mbps")},
	})

	// adaptive: the paper's §5 proposal — blocking sends keep the overlap,
	// overlap-aware (non-blocking) apps pin synchronously and stay out of
	// the way.
	adaptiveCase := func(label string, adaptive bool, app string) Case {
		cfg := omx.DefaultConfig(policy.Overlapped, false)
		cfg.AdaptiveOverlap = adaptive
		return Case{Label: label, OMX: cfg, Params: map[string]string{"app": app}}
	}
	MustRegister(&Scenario{
		Name:        "adaptive",
		Description: "Paper §5: per-request adaptive overlap for blocking vs overlap-aware application patterns",
		Cases: []Case{
			adaptiveCase("blocking/plain", false, "blocking"),
			adaptiveCase("blocking/adaptive", true, "blocking"),
			adaptiveCase("overlap-aware/plain", false, "overlap-aware"),
			adaptiveCase("overlap-aware/adaptive", true, "overlap-aware"),
		},
		Metric: "elapsed_ms",
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 8 << 20
			const iters = 6
			buf := c.Malloc(n)
			c.Barrier()
			t0 := c.Now()
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					if cr.Param("app") == "blocking" {
						c.Send(buf, n, 1, 1)
					} else {
						req := c.Isend(buf, n, 1, 1)
						c.Compute(2 * sim.Millisecond)
						c.Wait(req)
					}
				} else {
					c.Recv(buf, n, 0, 1)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				cr.Metric("elapsed_ms", (c.Now()-t0).Seconds()*1e3)
			}
		},
		Assertions: []Assertion{Completed(), MetricPositive("elapsed_ms")},
	})

	// mixed-policy: per-rank heterogeneous policies through the cluster's
	// EndpointConfig hook — the sender overlaps, the receiver pins per
	// communication.
	MustRegister(&Scenario{
		Name:        "mixed-policy",
		Description: "Heterogeneous matrix: overlapped sender talking to a pin-each-comm receiver, vs homogeneous baselines",
		Cases: []Case{
			{Label: "overlapped-both", OMX: omx.DefaultConfig(policy.Overlapped, true)},
			{
				Label: "overlapped-vs-regular",
				OMX:   omx.DefaultConfig(policy.Overlapped, true),
				Tweak: func(cfg *cluster.Config) {
					cfg.EndpointConfig = func(node, rank int, base omx.Config) omx.Config {
						if rank%2 == 1 {
							return omx.DefaultConfig(policy.PinEachComm, false)
						}
						return base
					}
				},
			},
			{Label: "regular-both", OMX: omx.DefaultConfig(policy.PinEachComm, false)},
		},
		Sizes:      []int{1 << 20, 4 << 20},
		QuickSizes: []int{4 << 20},
		Metric:     "mbps",
		Workload:   pingPongWorkload,
		Assertions: []Assertion{Completed(), MetricPositive("mbps")},
	})

	// faults: the declarative fault-injection showcase — an interrupt
	// flood window, a mid-run free of a pinned buffer (MMU notifier), a
	// fork, and swap pressure, while the workload keeps communicating.
	MustRegister(&Scenario{
		Name:        "faults",
		Description: "Fault injection mid-communication: flood window, free of a pinned buffer, fork, swap pressure",
		Cases: []Case{
			{Label: "cache", OMX: omx.DefaultConfig(policy.OnDemand, true)},
			{Label: "overlapped-cache", OMX: omx.DefaultConfig(policy.Overlapped, true)},
		},
		Faults: []Fault{
			{At: 1 * sim.Millisecond, Kind: FaultFlood, Util: 0.3, For: 2 * sim.Millisecond},
			{At: 5 * sim.Millisecond, Kind: FaultFree, Rank: 0, Buffer: "payload"},
			{At: 6 * sim.Millisecond, Kind: FaultFork, Rank: 1},
			{At: 7 * sim.Millisecond, Kind: FaultSwapOut, Rank: 1, Buffer: "scratch"},
		},
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 2 << 20
			if c.Rank() == 1 {
				scratch := c.Malloc(256 * 1024)
				c.WriteBytes(scratch, make([]byte, 256*1024))
				cr.RegisterBuffer(1, "scratch", scratch, 256*1024)
				recv := c.Malloc(n)
				c.Recv(recv, n, 0, 3)
				c.Recv(recv, n, 0, 3)
				return
			}
			buf := c.Malloc(n)
			cr.RegisterBuffer(0, "payload", buf, n)
			c.Send(buf, n, 1, 3)
			// Idle window: the free/fork/swap faults land while the region
			// sits pinned in the cache.
			c.Compute(8 * sim.Millisecond)
			// The mapping died under us; the unmap notifier dropped the
			// cached declaration, so realloc (the allocator reuses the
			// address) gets a fresh declaration on the next send.
			buf2 := c.Malloc(n)
			if buf2 != buf {
				cr.Note("allocator did not reuse the freed address")
			}
			c.Send(buf2, n, 1, 3)
			cr.Metric("sends", 2)
		},
		Assertions: []Assertion{
			Completed(),
			MetricAtLeast("stats.invalidate_hits", 1),
			MetricAtLeast("sends", 2),
			MetricBelow("stats.pin_failures", 1),
		},
	})
}
