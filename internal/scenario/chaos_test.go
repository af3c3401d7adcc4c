package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"omxsim/internal/chaos"
	"omxsim/internal/cluster"
	"omxsim/internal/ethernet"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

// fleetLink is the fleet specs' default link: a 2µs switch hop.
func fleetLink() *ethernet.LinkConfig {
	l := ethernet.DefaultLinkConfig()
	l.PropDelay = 2 * sim.Microsecond
	return &l
}

// TestMaxRetriesSurfacesTypedError is the regression test for the abort
// contract: a send whose control traffic is lost forever must exhaust
// maxRetries and surface a typed omx.ErrAborted through mpi.Comm — not a
// silent zero-byte completion — and every page it pinned must be released
// at the abort.
func TestMaxRetriesSurfacesTypedError(t *testing.T) {
	cfg := omx.DefaultConfig(policy.OnDemand, false) // pin-per-op: pins live only while the request does
	cfg.RetransmitTimeout = 50 * sim.Microsecond
	// Keep the peer-dead detector out of the way so the retransmit
	// counter, not the silence clock, is what aborts the request.
	cfg.PeerDeadTimeout = sim.Second
	cl, err := cluster.New(cluster.Config{
		Nodes: 2,
		Link:  fleetLink(),
		OMX:   cfg,
		OnBuild: []func(*cluster.Cluster){func(cl *cluster.Cluster) {
			// Sever the 0 -> 1 direction: the rendezvous never arrives and
			// no ack ever comes back.
			cl.Fabric.DropFilter = func(fr *ethernet.Frame) bool {
				return fr.Src == 0 && fr.Dst == 1
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sendErr error
	sent := false
	cl.Run(func(c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		buf := c.Malloc(64 * 1024)
		sendErr = c.SendE(buf, 64*1024, 1, 5)
		sent = true
	})
	if !sent {
		t.Fatal("rank 0 body never finished")
	}
	if sendErr == nil {
		t.Fatal("send over a severed link completed without error")
	}
	if !errors.Is(sendErr, omx.ErrAborted) {
		t.Fatalf("send error %v is not typed omx.ErrAborted", sendErr)
	}
	if errors.Is(sendErr, omx.ErrPeerDead) {
		t.Fatalf("send aborted via peer-death %v; expected the retransmit limit", sendErr)
	}
	for _, p := range cl.Processes() {
		if n := p.Manager().PinnedPages(); n != 0 {
			t.Errorf("process %d still holds %d pinned pages after abort", p.PID(), n)
		}
	}
	for _, n := range cl.Nodes {
		if got := n.InFlightRequests(); got != 0 {
			t.Errorf("node %d reports %d requests in flight after abort", n.ID, got)
		}
	}
	if leaked := cl.Close(); leaked != 0 {
		t.Errorf("%d pages leaked through teardown", leaked)
	}
}

// TestChaosFaultsRouteToOwningShard runs a 4-node cluster on 4 shards
// (every node on its own engine) with a crash fault targeting node 2:
// the injection must land on node 2's shard — observable as exactly that
// node's crash/restart counters moving — and the run must stay green
// under -race, which would flag the event mutating another shard's
// state.
func TestChaosFaultsRouteToOwningShard(t *testing.T) {
	var crashes, restarts [4]uint64
	engines := make(map[*sim.Engine]bool)
	cfg := omx.DefaultConfig(policy.OnDemand, true)
	cfg.RetransmitTimeout = 200 * sim.Microsecond
	cfg.PeerDeadTimeout = 2 * sim.Millisecond
	s := &Scenario{
		Name:    "chaos-shard-routing",
		Cluster: cluster.Config{Nodes: 4, Link: fleetLink()},
		Cases:   []Case{{Label: "cache", OMX: cfg}},
		Faults: []Fault{
			{At: 300 * sim.Microsecond, Kind: FaultCrash, Node: 2, For: 400 * sim.Microsecond},
		},
		Workload: chaosWorkload(8, 64*1024, 5*sim.Millisecond),
		Assertions: []Assertion{EachCase("collect per-node outcome", func(cr *CaseRun) (bool, string) {
			for i, n := range cr.Cluster.Nodes {
				crashes[i] = n.Stats().Crashes
				restarts[i] = n.Stats().Restarts
				engines[n.Eng] = true
			}
			return true, ""
		})},
	}
	res, err := s.Run(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		for _, a := range res.Assertions {
			if !a.Passed {
				t.Errorf("assertion %q failed: %s", a.Name, a.Detail)
			}
		}
		t.FailNow()
	}
	if len(engines) != 4 {
		t.Fatalf("expected 4 distinct shard engines, saw %d", len(engines))
	}
	for i := range crashes {
		want := uint64(0)
		if i == 2 {
			want = 1
		}
		if crashes[i] != want || restarts[i] != want {
			t.Errorf("node %d: crashes=%d restarts=%d, want %d/%d (fault targeted node 2)",
				i, crashes[i], restarts[i], want, want)
		}
	}
}

// TestFaultKindStrings is the table-driven coverage of every fault kind's
// name, old and new, plus the out-of-range fallback.
func TestFaultKindStrings(t *testing.T) {
	cases := []struct {
		kind FaultKind
		want string
	}{
		{FaultFree, "free"},
		{FaultFork, "fork"},
		{FaultSwapOut, "swapout"},
		{FaultFlood, "flood"},
		{FaultMProtect, "mprotect"},
		{FaultCrash, "crash"},
		{FaultLinkDegrade, "link-degrade"},
		{FaultPartition, "partition"},
		{FaultBudgetShrink, "budget-shrink"},
		{FaultKind(99), "fault(99)"},
	}
	for _, tc := range cases {
		if got := tc.kind.String(); got != tc.want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(tc.kind), got, tc.want)
		}
	}
}

// TestChaosScenarioListing checks the registered chaos scenarios expose a
// profile summary (what `omxsim list` prints) naming each fault class
// they inject.
func TestChaosScenarioListing(t *testing.T) {
	wants := map[string][]string{
		"chaos-crash-recover": {"node-crash"},
		"chaos-degraded-link": {"link-degrade", "partition"},
		"chaos-budget-shrink": {"budget-shrink"},
	}
	for name, classes := range wants {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		if s.Chaos == nil {
			t.Fatalf("scenario %q has no chaos profile", name)
		}
		sum := s.Chaos.Summary()
		for _, c := range classes {
			if !strings.Contains(sum, c) {
				t.Errorf("%s profile summary %q does not mention %q", name, sum, c)
			}
		}
	}
}

// TestChaosSeedIndependentOfShards checks the knob the CLI exposes as
// -chaos-seed: reseeding the fault schedule changes the outcome without
// touching the simulation seed, and each chaos seed is itself
// shard-count invariant.
func TestChaosSeedIndependentOfShards(t *testing.T) {
	base := resultBytes(t, "chaos-budget-shrink", Options{Shards: 1, ChaosSeed: 7})
	same := resultBytes(t, "chaos-budget-shrink", Options{Shards: 2, ChaosSeed: 7})
	if string(base) != string(same) {
		t.Fatal("chaos-seed 7 result differs between shards=1 and shards=2")
	}
}

// TestChaosPlanOnlyDependsOnInputs pins the contract armChaos relies on:
// the compiled plan is a pure function of (seed, node count), so
// replanning for the same cell cannot diverge between shard layouts.
func TestChaosPlanOnlyDependsOnInputs(t *testing.T) {
	p := &chaos.Profile{
		Horizon: 10 * sim.Millisecond,
		Specs: []chaos.Spec{
			{Class: chaos.NodeCrash, Arrival: chaos.Poisson, MeanGap: sim.Millisecond, Duration: sim.Millisecond},
			{Class: chaos.LinkDegrade, Arrival: chaos.Burst, MeanGap: 2 * sim.Millisecond, Duration: 500 * sim.Microsecond},
		},
	}
	a := p.Plan(42, 8)
	b := p.Plan(42, 8)
	if len(a) == 0 {
		t.Fatal("plan is empty")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("two plans from the same inputs differ")
	}
	for i, ev := range a {
		if ev.At >= sim.Time(p.Horizon) {
			t.Errorf("event %d fires at %v, at or past the %v horizon", i, ev.At, p.Horizon)
		}
		if ev.Node < 0 || ev.Node >= 8 {
			t.Errorf("event %d targets node %d outside the cluster", i, ev.Node)
		}
		if i > 0 && a[i-1].At > ev.At {
			t.Errorf("plan not sorted at %d: %v after %v", i, a[i-1].At, ev.At)
		}
	}
}
