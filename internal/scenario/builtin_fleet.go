// builtin_fleet.go registers the fleet-stream scenario: a multi-node
// pairwise streaming workload sized for the sharded parallel engine (8
// nodes, 16 ranks, every pair crossing the fabric). It is the cell the
// parallel meta-benchmark and the shard-determinism tests drive — wide
// enough that shards=4/8 have real work per window, and built purely from
// message passing so it terminates deterministically.
package scenario

import (
	"omxsim/internal/cluster"
	"omxsim/internal/ethernet"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

// fleetLink widens the one-way link latency to 2µs — a store-and-forward
// switch hop at 10G rather than the two-node testbed's 500ns cable. For
// the sharded engine that latency doubles as the conservative lookahead,
// so fleet-scale scenarios get usefully wide synchronization windows.
func fleetLink() *ethernet.LinkConfig {
	l := ethernet.DefaultLinkConfig()
	l.PropDelay = 2 * sim.Microsecond
	return &l
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

func init() {
	// fleet-stream: the parallel-engine workload. Run it with -shards N
	// to split the 8 nodes across N engine shards; the same seed must
	// produce identical statistics at every shard count.
	MustRegister(&Scenario{
		Name:        "fleet-stream",
		Description: "8-node 16-rank pairwise cross-node streaming: the sharded parallel-engine workload (drive with -shards)",
		Cluster: cluster.Config{
			Nodes:        8,
			RanksPerNode: 2,
			Link:         fleetLink(),
		},
		Cases: []Case{
			{Label: "cache", OMX: omx.DefaultConfig(policy.OnDemand, true)},
			{Label: "overlapped-cache", OMX: omx.DefaultConfig(policy.Overlapped, true)},
		},
		Sizes:      []int{256 * 1024, 1 << 20},
		QuickSizes: []int{256 * 1024},
		Metric:     "agg_mbps",
		Workload:   fleetWorkload(12),
		Assertions: []Assertion{MetricPositive("agg_mbps"), Completed()},
	})
}
