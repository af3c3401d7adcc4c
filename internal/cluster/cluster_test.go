package cluster_test

import (
	"fmt"
	"runtime"
	"testing"

	"omxsim/internal/cluster"
	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

func TestDefaults(t *testing.T) {
	cl, err := cluster.New(cluster.Config{OMX: omx.DefaultConfig(policy.OnDemand, true)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(cl.Nodes))
	}
	if len(cl.Endpoints) != 2 || cl.World.Size() != 2 {
		t.Fatalf("ranks = %d, want 2", len(cl.Endpoints))
	}
	// Apps default to core 1, interrupts to core 0.
	if cl.Endpoints[0].Core().ID() != 1 {
		t.Fatalf("app core = %d, want 1", cl.Endpoints[0].Core().ID())
	}
	if cl.Nodes[0].RxCore().ID() != 0 {
		t.Fatalf("rx core = %d, want 0", cl.Nodes[0].RxCore().ID())
	}
	if cl.Nodes[0].Machine.Spec.Name != cpu.XeonE5460.Name {
		t.Fatalf("default host = %s", cl.Nodes[0].Machine.Spec.Name)
	}
}

// TestZeroConfigPinsEachCommunication: a nil policy means pin-each-comm,
// so a zero config with the cache off unpins every page it pinned.
func TestZeroConfigPinsEachCommunication(t *testing.T) {
	if got := (omx.Config{}).PolicyLabel(); got != "pin-each-comm" {
		t.Fatalf("zero config label = %q, want pin-each-comm", got)
	}
	cl, err := cluster.New(cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(func(c *mpi.Comm) {
		buf := c.Malloc(1 << 20)
		if c.Rank() == 0 {
			c.Send(buf, 1<<20, 1, 1)
		} else {
			c.Recv(buf, 1<<20, 0, 1)
		}
	})
	for _, p := range cl.Processes() {
		st := p.Manager().Stats()
		if p.Manager().PinnedPages() != 0 || st.PagesPinned == 0 || st.PagesPinned != st.PagesUnpinned {
			t.Fatalf("node %d: %d pages still pinned, %d pinned, %d unpinned",
				p.Node().ID, p.Manager().PinnedPages(), st.PagesPinned, st.PagesUnpinned)
		}
	}
}

func TestBlockRankDistribution(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Nodes: 3, RanksPerNode: 2,
		OMX: omx.DefaultConfig(policy.OnDemand, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Endpoints) != 6 {
		t.Fatalf("ranks = %d", len(cl.Endpoints))
	}
	// Block distribution: ranks 0,1 on node 0; 2,3 on node 1; 4,5 on node 2.
	for r, ep := range cl.Endpoints {
		if ep.Node().ID != r/2 {
			t.Fatalf("rank %d on node %d, want %d", r, ep.Node().ID, r/2)
		}
	}
}

func TestAppsOnRxCore(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		AppsOnRxCore: true,
		OMX:          omx.DefaultConfig(policy.Overlapped, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range cl.Endpoints {
		if ep.Core().ID() != ep.Node().RxCore().ID() {
			t.Fatal("app not on the RX core despite AppsOnRxCore")
		}
	}
}

func TestRunDeadlockPanics(t *testing.T) {
	cl, _ := cluster.New(cluster.Config{OMX: omx.DefaultConfig(policy.OnDemand, true)})
	defer func() {
		if recover() == nil {
			t.Error("deadlocked Run did not panic")
		}
	}()
	cl.Run(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			buf := c.Malloc(4096)
			c.Recv(buf, 4096, 1, 1) // nobody ever sends
		}
	})
}

func TestRunForStopsAtBudget(t *testing.T) {
	cl, _ := cluster.New(cluster.Config{OMX: omx.DefaultConfig(policy.OnDemand, true)})
	done := cl.RunFor(sim.Millisecond, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			buf := c.Malloc(4096)
			c.Recv(buf, 4096, 1, 1) // never completes
		}
	})
	if done {
		t.Fatal("RunFor reported completion of a blocked rank")
	}
	if cl.Eng.Now() < sim.Millisecond {
		t.Fatalf("engine stopped at %v, before the budget", cl.Eng.Now())
	}
}

func TestStatsAggregation(t *testing.T) {
	cl, _ := cluster.New(cluster.Config{OMX: omx.DefaultConfig(policy.OnDemand, true)})
	cl.Run(func(c *mpi.Comm) {
		buf := c.Malloc(1 << 20)
		if c.Rank() == 0 {
			c.Send(buf, 1<<20, 1, 1)
		} else {
			c.Recv(buf, 1<<20, 0, 1)
		}
	})
	st := cl.Stats()
	if st.FramesTx == 0 || st.FramesRx == 0 || st.PullRepliesRx == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() sim.Time {
		cl, _ := cluster.New(cluster.Config{
			Seed: 42,
			OMX:  omx.DefaultConfig(policy.Overlapped, true),
		})
		cl.Run(func(c *mpi.Comm) {
			buf := c.Malloc(2 << 20)
			for i := 0; i < 3; i++ {
				if c.Rank() == 0 {
					c.Send(buf, 2<<20, 1, i)
				} else {
					c.Recv(buf, 2<<20, 0, i)
				}
			}
		})
		return cl.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical seeds produced different end times: %v vs %v", a, b)
	}
}

// TestShardCounts checks the shard count is a layout choice only: 0 and 1
// both build one engine shard, and one or two shards end a run at the same
// simulated time after the same events. A link without latency is not a
// physical link and is refused.
func TestShardCounts(t *testing.T) {
	run := func(shards int) (int, sim.Time, uint64) {
		cl, err := cluster.New(cluster.Config{Shards: shards, OMX: omx.DefaultConfig(policy.Overlapped, true)})
		if err != nil {
			t.Fatal(err)
		}
		cl.Run(func(c *mpi.Comm) {
			buf := c.Malloc(1 << 20)
			if c.Rank() == 0 {
				c.Send(buf, 1<<20, 1, 0)
			} else {
				c.Recv(buf, 1<<20, 0, 0)
			}
		})
		return cl.Set.NumShards(), cl.Now(), cl.EventsFired()
	}
	n0, end0, ev0 := run(0)
	for _, shards := range []int{1, 2} {
		n, end, ev := run(shards)
		if want := max(shards, 1); n != want {
			t.Errorf("Shards: %d built %d engine shards, want %d", shards, n, want)
		}
		if end != end0 || ev != ev0 {
			t.Errorf("Shards: %d ended at %v after %d events; Shards: 0 at %v after %d", shards, end, ev, end0, ev0)
		}
	}
	if n0 != 1 {
		t.Errorf("Shards: 0 built %d engine shards, want 1", n0)
	}
	link := ethernet.DefaultLinkConfig()
	link.PropDelay = 0
	if _, err := cluster.New(cluster.Config{Link: &link}); err == nil {
		t.Error("a zero-latency link was accepted")
	}
}

// TestGroupShardPlacement: on 2 and 4 shards every shard carries
// ⌊G/s⌋ or ⌈G/s⌉ of each group's G nodes — groups smaller than the shard
// count included — and a one-group cluster keeps node n on shard
// n*shards/Nodes.
func TestGroupShardPlacement(t *testing.T) {
	shardOf := func(cl *cluster.Cluster) []int {
		index := make(map[*sim.Engine]int)
		for i := range cl.Set.NumShards() {
			index[cl.Set.Engine(i)] = i
		}
		out := make([]int, len(cl.Nodes))
		for n, node := range cl.Nodes {
			out[n] = index[node.Eng]
		}
		return out
	}
	sizes := []int{3, 10, 1, 5, 1}
	var groups []cluster.NodeGroup
	for i, g := range sizes {
		groups = append(groups, cluster.NodeGroup{Name: fmt.Sprint("g", i), Nodes: g})
	}
	omxCfg := omx.DefaultConfig(policy.OnDemand, true)
	for _, shards := range []int{2, 4} {
		cl, err := cluster.New(cluster.Config{Groups: groups, Shards: shards, OMX: omxCfg})
		if err != nil {
			t.Fatal(err)
		}
		got := shardOf(cl)
		n := 0
		for gi, g := range sizes {
			count := make([]int, shards)
			for range g {
				count[got[n]]++
				n++
			}
			for s, c := range count {
				if c != g/shards && c != (g+shards-1)/shards {
					t.Errorf("shards=%d: group %d (%d nodes) put %d on shard %d: %v", shards, gi, g, c, s, count)
				}
			}
		}

		const nodes = 7
		cl, err = cluster.New(cluster.Config{Nodes: nodes, Shards: shards, OMX: omxCfg})
		if err != nil {
			t.Fatal(err)
		}
		for n, s := range shardOf(cl) {
			if want := n * shards / nodes; s != want {
				t.Errorf("shards=%d one group: node %d on shard %d, want %d", shards, n, s, want)
			}
		}
	}
}

// TestClusterSetupAllocation guards fleet assembly's host memory: a node
// costs its devices and endpoints, not page tables for memory its
// processes have mapped but not touched. Not parallel, so the TotalAlloc
// delta is this build's alone.
func TestClusterSetupAllocation(t *testing.T) {
	const nodes = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl, err := cluster.New(cluster.Config{
		Groups: []cluster.NodeGroup{
			{Name: "storage", Nodes: 16, EndpointsPerNode: 2, NICQueues: 4},
			{Name: "clients", Nodes: nodes - 16},
		},
		Shards: 2,
		OMX:    omx.DefaultConfig(policy.OnDemand, true),
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(cl)
	if perNode := (after.TotalAlloc - before.TotalAlloc) / nodes; perNode >= 64<<10 {
		t.Errorf("building a %d-node cluster allocated %d KiB per node, want under 64", nodes, perNode>>10)
	}
}

func TestCustomLinkConfig(t *testing.T) {
	link := cluster.Config{OMX: omx.DefaultConfig(policy.OnDemand, true)}
	cfgLink := defaultLinkHalved()
	link.Link = &cfgLink
	cl, err := cluster.New(link)
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Fabric.Config().BytesPerSec; got != cfgLink.BytesPerSec {
		t.Fatalf("link bandwidth = %v", got)
	}
}

// TestLookaheadIsMinFrameLatency: the shard window is the fabric's
// minimum send-to-handler latency — tx overhead, PropDelay and the
// interrupt delay — on the default 500 ns link and on fleet-style 2 µs
// links, at one shard and at two.
func TestLookaheadIsMinFrameLatency(t *testing.T) {
	for _, c := range []struct {
		prop, want sim.Duration
	}{
		{500 * sim.Nanosecond, 5700 * sim.Nanosecond},
		{2 * sim.Microsecond, 7200 * sim.Nanosecond},
	} {
		for _, shards := range []int{1, 2} {
			link := ethernet.DefaultLinkConfig()
			link.PropDelay = c.prop
			cl, err := cluster.New(cluster.Config{Shards: shards, Link: &link})
			if err != nil {
				t.Fatal(err)
			}
			if got := cl.Set.Lookahead(); got != c.want || got != cl.Fabric.MinLatency() {
				t.Errorf("PropDelay %v, %d shards: lookahead %v, want %v (fabric minimum %v)",
					c.prop, shards, got, c.want, cl.Fabric.MinLatency())
			}
		}
	}
}

func defaultLinkHalved() (cfg ethernetLinkConfig) {
	c := ethernet.DefaultLinkConfig()
	c.BytesPerSec /= 2
	return c
}

type ethernetLinkConfig = ethernet.LinkConfig
