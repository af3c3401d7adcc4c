// builtin_cache.go registers the cache-stress scenario family: targeted
// workloads for the production-grade registration cache — realloc churn
// at reused addresses (the staleness hazard MMU-notifier coupling
// eliminates), overlapping sub-buffer communication (subrange hits
// through the interval index), multi-endpoint sharing of one per-process
// cache, and byte-budget eviction pressure under both eviction policies.
package scenario

import (
	"fmt"

	"omxsim/internal/cluster"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/vm"
)

func init() {
	// cache-stress-realloc: malloc → send → free in a tight loop. The
	// allocator hands the same address back every round, so every send
	// after the first would be a byte-identical cache key — the unmap
	// notifier must have dropped the dead entry each time, making every
	// round a clean miss + fresh declaration, never a stale hit against
	// the munmap'd mapping.
	const reallocIters = 6
	MustRegister(&Scenario{
		Name:        "cache-stress-realloc",
		Description: "Realloc churn at reused addresses: every free drops the cached declaration, every round re-declares — no stale hits",
		Cases: []Case{
			{Label: "cache", OMX: omx.DefaultConfig(policy.OnDemand, true)},
			{Label: "overlapped-cache", OMX: omx.DefaultConfig(policy.Overlapped, true)},
			{Label: "pin-ahead", OMX: omx.DefaultConfig(policy.PinAhead, true)},
		},
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 1 << 20
			if c.Rank() == 1 {
				recv := c.Malloc(n)
				for i := 0; i < reallocIters; i++ {
					c.Recv(recv, n, 0, 5)
				}
				return
			}
			for i := 0; i < reallocIters; i++ {
				buf := c.Malloc(n)
				c.Send(buf, n, 1, 5)
				c.Free(buf)
			}
		},
		Assertions: []Assertion{
			Completed(),
			// Every sender free must have dropped its cached declaration.
			MetricAtLeast("stats.cache_invalidations", reallocIters),
			// Sender re-declares every round; receiver declares once.
			MetricAtLeast("stats.declares", reallocIters+1),
			// The structural point: nothing ever pinned a dead mapping.
			MetricBelow("stats.pin_failures", 1),
		},
	})

	// cache-stress-subrange: one big declaration per rank, then traffic
	// over overlapping sub-buffers inside it. Every sub-buffer request is
	// fully covered by the big declaration, so the interval index serves
	// it as a subrange hit — no further declarations on either side.
	subOffsets := []int{0, 64 << 10, 1 << 20, (1 << 20) + (128 << 10), 3 << 20, (3 << 20) + (200 << 10)}
	MustRegister(&Scenario{
		Name:        "cache-stress-subrange",
		Description: "Overlapping sub-buffer traffic inside one declared buffer: subrange hits through the interval index, no extra declarations",
		Cases: []Case{
			{Label: "cache", OMX: omx.DefaultConfig(policy.OnDemand, true)},
			{Label: "overlapped-cache", OMX: omx.DefaultConfig(policy.Overlapped, true)},
		},
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 4 << 20
			const sub = 256 << 10
			big := c.Malloc(n)
			if c.Rank() == 0 {
				c.Send(big, n, 1, 7) // declares the whole buffer
				for _, off := range subOffsets {
					c.Send(big+vm.Addr(off), sub, 1, 7) // subrange hits
				}
			} else {
				c.Recv(big, n, 0, 7)
				for _, off := range subOffsets {
					c.Recv(big+vm.Addr(off), sub, 0, 7)
				}
			}
		},
		Assertions: []Assertion{
			Completed(),
			// 6 sub-sends + 6 sub-recvs, all covered by the big entries.
			MetricAtLeast("stats.cache_subrange_hits", 2*float64(len(subOffsets))),
			// One declaration per rank — the acceptance criterion: a
			// subrange request hits without a new declaration.
			MetricBelow("stats.declares", 3),
			MetricBelow("stats.pin_failures", 1),
		},
	})

	// cache-stress-share: two ranks per node in ONE process (shared
	// address space and shared region cache). Rank 0 declares a buffer by
	// communicating; rank 1 then sends the same buffer — its lookup hits
	// the process-shared cache entry rank 0 created.
	MustRegister(&Scenario{
		Name:        "cache-stress-share",
		Description: "Two endpoints sharing one process cache: a buffer declared via one endpoint is a cache hit on the other",
		Cluster:     cluster.Config{Nodes: 2, RanksPerNode: 2, RanksPerProc: 2},
		Cases: []Case{
			{Label: "cache", OMX: omx.DefaultConfig(policy.OnDemand, true)},
			{Label: "pin-ahead", OMX: omx.DefaultConfig(policy.PinAhead, true)},
		},
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 2 << 20
			// Ranks 0,1 share node 0's process; ranks 2,3 share node 1's.
			var buf vm.Addr
			if c.Rank() == 0 {
				buf = c.Malloc(n)
				cr.RegisterBuffer(0, "shared", buf, n)
			}
			c.Barrier()
			switch c.Rank() {
			case 0:
				c.Send(buf, n, 2, 9)
			case 2:
				recv := c.Malloc(n)
				c.Recv(recv, n, 0, 9)
			}
			c.Barrier()
			switch c.Rank() {
			case 1:
				// The same buffer, through the sibling endpoint: the
				// process-shared cache already holds its declaration.
				addr, _, ok := cr.Buffer(0, "shared")
				if !ok {
					cr.Note("shared buffer not registered")
					return
				}
				c.Send(addr, n, 3, 9)
			case 3:
				recv := c.Malloc(n)
				c.Recv(recv, n, 1, 9)
			}
			c.Barrier()
		},
		Assertions: []Assertion{
			Completed(),
			// Rank 1's send reuses rank 0's declaration.
			MetricAtLeast("stats.cache_hits", 1),
			// One declaration for the shared buffer + one per receiver.
			MetricBelow("stats.declares", 4),
			MetricBelow("stats.pin_failures", 1),
		},
	})

	// cache-stress-pressure: the sender's working set (4 MiB across four
	// buffers) exceeds its cache byte budget (3 MiB), so the cache must
	// keep evicting idle declarations to stay within budget — under both
	// LRU and size-weighted eviction.
	pressureCase := func(label, eviction string) Case {
		cfg := omx.DefaultConfig(policy.OnDemand, true)
		cfg.CacheByteCapacity = 3 << 20
		cfg.CacheEviction = eviction
		return Case{Label: label, OMX: cfg}
	}
	MustRegister(&Scenario{
		Name:        "cache-stress-pressure",
		Description: "Working set over the cache byte budget: eviction keeps cached bytes within budget, under LRU and size-weighted policies",
		Cases: []Case{
			pressureCase("lru", "lru"),
			pressureCase("size-weighted", "size"),
		},
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 1 << 20
			const rounds = 2
			if c.Rank() == 1 {
				recv := c.Malloc(n)
				for i := 0; i < rounds*4; i++ {
					c.Recv(recv, n, 0, 11)
				}
				return
			}
			var bufs []vm.Addr
			for i := 0; i < 4; i++ {
				bufs = append(bufs, c.Malloc(n))
			}
			for r := 0; r < rounds; r++ {
				for _, b := range bufs {
					c.Send(b, n, 1, 11)
				}
			}
		},
		Assertions: []Assertion{
			Completed(),
			MetricAtLeast("stats.cache_evictions", 1),
			MetricBelow("stats.pin_failures", 1),
			cacheByteBudgetRespected(),
		},
	})
}

// cacheByteBudgetRespected asserts that, at the end of the run, every
// process cache with a configured byte budget sits within it — the
// acceptance criterion for budget-pressure eviction. (Referenced entries
// may exceed the budget transiently; at quiescence nothing is referenced.)
func cacheByteBudgetRespected() Assertion {
	return EachCase("cache byte budget respected", func(cr *CaseRun) (bool, string) {
		budget := cr.Case.OMX.CacheByteCapacity
		if budget <= 0 || cr.Cluster == nil {
			return true, ""
		}
		for _, p := range cr.Cluster.Processes() {
			if b := p.Cache().Bytes(); b > budget {
				return false, fmt.Sprintf("process %d caches %d bytes > budget %d",
					p.PID(), b, budget)
			}
		}
		return true, ""
	})
}
