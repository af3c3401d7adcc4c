package cluster_test

import (
	"testing"

	"omxsim/internal/cluster"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
)

func TestEndpointsPerNodeAttachesAuxLanes(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Nodes:            2,
		EndpointsPerNode: 3,
		NICQueues:        2,
		OMX:              omx.DefaultConfig(policy.OnDemand, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ep := range cl.Endpoints {
		addrs := ep.AllAddrs()
		if len(addrs) != 3 {
			t.Fatalf("rank %d has %d lane addrs, want 3", r, len(addrs))
		}
		if addrs[0] != ep.Addr() {
			t.Fatalf("rank %d: primary address is not first", r)
		}
		seen := map[int]bool{}
		for _, a := range addrs {
			if a.Node != ep.Node().ID {
				t.Fatalf("rank %d: lane on node %d, want %d", r, a.Node, ep.Node().ID)
			}
			if seen[a.EP] {
				t.Fatalf("rank %d: duplicate endpoint id %d across lanes", r, a.EP)
			}
			seen[a.EP] = true
		}
		// Aux lanes share the rank's process, so per-process state
		// (pin manager, registration cache) is one unit per rank-role.
		for _, aux := range ep.Aux() {
			if aux.Process() != ep.Process() {
				t.Fatalf("rank %d: aux lane on a different process", r)
			}
		}
	}
	for _, n := range cl.Nodes {
		if n.RxQueues() != 2 || n.NIC.Queues() != 2 {
			t.Fatalf("node %d: rx queues = %d, NIC queues = %d, want 2/2", n.ID, n.RxQueues(), n.NIC.Queues())
		}
	}
	if leaked := cl.Close(); leaked != 0 {
		t.Fatalf("%d pages pinned after close", leaked)
	}
}

func TestGroupEndpointOverrides(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Groups: []cluster.NodeGroup{
			{Name: "storage", Nodes: 2, EndpointsPerNode: 2, NICQueues: 4},
			{Name: "clients", Nodes: 2},
		},
		OMX: omx.DefaultConfig(policy.OnDemand, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ep := range cl.Endpoints {
		want := 2
		if r >= 2 { // clients inherit the base default of 1
			want = 1
		}
		if got := len(ep.AllAddrs()); got != want {
			t.Fatalf("rank %d has %d lanes, want %d", r, got, want)
		}
	}
	for i, n := range cl.Nodes {
		want := 4
		if i >= 2 {
			want = 1
		}
		if n.RxQueues() != want {
			t.Fatalf("node %d rx queues = %d, want %d", i, n.RxQueues(), want)
		}
	}
	if leaked := cl.Close(); leaked != 0 {
		t.Fatalf("%d pages pinned after close", leaked)
	}
}
