// builtin_chaos.go holds the workload of the chaos-* scenario family
// (specs/chaos-*.yaml): workloads that keep communicating while the chaos
// engine injects node crashes, link degradation windows, partitions, and
// memory-budget shrinks from seeded arrival distributions. The scenarios
// assert the robustness contract: every operation hit by a fault ends in a
// typed abort or a completed recovery (never a hang), pins released on
// crash stay released, and the pinned and ODP backends degrade differently
// under budget pressure.
package scenario

import (
	"omxsim/internal/mpi"
	"omxsim/internal/sim"
)

// chaosWorkload pairs rank i with rank i+size/2 and ping-pongs `bytes`
// for `rounds`, under MPI_ERRORS_RETURN semantics: sends surface typed
// aborts (peer dead, pin failure) instead of panicking, and receives are
// bounded by recvTimeout so a message that never comes is an error, not
// a hang. Fixed tags let the pair resynchronize after a fault desyncs
// their rounds (a late message is consumed by the next receive). Every
// rank accumulates ops_ok / ops_err, and ops_recovered counts an op
// succeeding again after one failed — the workload-level definition of
// "recovered".
func chaosWorkload(rounds, bytes int, recvTimeout sim.Duration) Workload {
	return func(c *mpi.Comm, cr *CaseRun) {
		half := c.Size() / 2
		lower := c.Rank() < half
		peer := c.Rank() + half
		if !lower {
			peer = c.Rank() - half
		}
		tx := c.Malloc(bytes)
		rx := c.Malloc(bytes)
		prevErr := false
		for r := 0; r < rounds; r++ {
			var err error
			if lower {
				err = c.SendE(tx, bytes, peer, 7)
				if err == nil {
					_, err = c.RecvTimeout(rx, bytes, peer, 7, recvTimeout)
				}
			} else {
				_, err = c.RecvTimeout(rx, bytes, peer, 7, recvTimeout)
				if err == nil {
					err = c.SendE(tx, bytes, peer, 7)
				}
			}
			if err != nil {
				cr.AddMetric("ops_err", 1)
				prevErr = true
			} else {
				cr.AddMetric("ops_ok", 1)
				if prevErr {
					cr.AddMetric("ops_recovered", 1)
					prevErr = false
				}
			}
		}
	}
}
