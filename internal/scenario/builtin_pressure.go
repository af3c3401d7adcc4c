// builtin_pressure.go holds the workload and checks of the pressure-*
// scenario family (specs/pressure-*.yaml): runs where swap-outs are
// *emergent* — produced by the allocator hitting a per-node frame budget
// (cluster.Config.Mem) and the vm reclaim subsystem stealing cold pages —
// instead of injected by a FaultSwapOut. This is the regime the paper's
// cost model describes: pinned pages are unreclaimable, so the pinned
// backends hold their working sets against kswapd while the
// page-table-translated backends absorb reclaim as device faults.
package scenario

import (
	"fmt"

	"omxsim/internal/mpi"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// pressureWorkload streams a fixed-size message between rank pairs
// (rank i on node 0 -> rank i+half on node 1) while every rank dirties a
// churn buffer each round — the memory hog that overcommits the node's
// frame budget. The comm buffer is written first, so its frames are the
// oldest the reclaim scan visits: a pinned backend must resist exactly
// there. churnCompute gives kswapd simulated time to run between rounds.
// Each round the hog writes one shared dirt page by reference into each
// whole page of its buffer with a single WriteBuf (faulting and reclaiming
// exactly as a copy, or a call per page, would) and copies only a final
// partial page, never past churnBytes.
func pressureWorkload(rounds, commBytes, churnBytes int, churnCompute sim.Duration) Workload {
	return func(c *mpi.Comm, cr *CaseRun) {
		half := c.Size() / 2
		comm := c.Malloc(commBytes)
		churn := c.Malloc(churnBytes)
		cr.RegisterBuffer(c.Rank(), "comm", comm, commBytes)
		payload := make([]byte, commBytes)
		for i := range payload {
			payload[i] = byte(c.Rank() + i)
		}
		c.WriteBytes(comm, payload)
		if cr.Param("advise") != "" {
			c.Advise(comm, commBytes)
		}
		pattern := make([]byte, vm.PageSize)
		for i := range pattern {
			pattern[i] = byte(i + 1)
		}
		dirt := vm.RepeatPage(pattern, vm.PageCount(0, churnBytes))
		defer dirt.Release()
		c.Barrier()
		start := c.Now()
		for r := 0; r < rounds; r++ {
			w := vm.NewBufWriter(&dirt)
			c.WriteBuf(churn, &w, churnBytes)
			c.Compute(churnCompute)
			if c.Rank() < half {
				c.Send(comm, commBytes, c.Rank()+half, 31)
			} else {
				c.Recv(comm, commBytes, c.Rank()-half, 31)
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			elapsed := c.Now() - start
			cr.Metric("mbps", float64(rounds)*float64(commBytes)/elapsed.Seconds()/(1<<20))
		}
	}
}

// emergentSteals asserts reclaim actually ran — the family's defining
// property, with no swap injector anywhere in these scenarios.
func emergentSteals() Assertion {
	return EachCase("emergent reclaim steals pages (no injector)", func(cr *CaseRun) (bool, string) {
		if cr.Metrics["stats.pgsteal"] < 1 {
			return false, fmt.Sprintf("pgsteal = %g", cr.Metrics["stats.pgsteal"])
		}
		return true, ""
	})
}
