package npb_test

import (
	"testing"

	"omxsim/internal/cluster"
	"omxsim/internal/mpi"
	"omxsim/internal/npb"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

func runIS(t *testing.T, class npb.Class, nodes, ranksPerNode int, cfg omx.Config) npb.Result {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Nodes: nodes, RanksPerNode: ranksPerNode, OMX: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var res npb.Result
	cl.Run(func(c *mpi.Comm) {
		r := npb.Run(c, class)
		if c.Rank() == 0 {
			res = r
		}
	})
	return res
}

func TestISVerifiesSmallClasses(t *testing.T) {
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
		res := runIS(t, class, 2, 2, omx.DefaultConfig(policy.OnDemand, true))
		if !res.Verified {
			t.Fatalf("class %s failed verification", class.Name)
		}
		if res.Elapsed <= 0 || res.MopsTotal <= 0 {
			t.Fatalf("class %s: no timing", class.Name)
		}
	}
}

func TestISVerifiesUnderAllPolicies(t *testing.T) {
	for _, pol := range []policy.Policy{policy.PinEachComm, policy.OnDemand, policy.Overlapped} {
		cacheOn := pol == policy.OnDemand
		res := runIS(t, npb.ClassS, 2, 2, omx.DefaultConfig(pol, cacheOn))
		if !res.Verified {
			t.Fatalf("policy %s: verification failed", pol.Name())
		}
	}
}

func TestISRankCounts(t *testing.T) {
	for _, shape := range [][2]int{{2, 1}, {2, 2}, {2, 4}} {
		res := runIS(t, npb.ClassS, shape[0], shape[1], omx.DefaultConfig(policy.OnDemand, true))
		if !res.Verified {
			t.Fatalf("%dx%d: verification failed", shape[0], shape[1])
		}
		if res.Ranks != shape[0]*shape[1] {
			t.Fatalf("ranks = %d", res.Ranks)
		}
	}
}

func TestISDeterministic(t *testing.T) {
	a := runIS(t, npb.ClassS, 2, 2, omx.DefaultConfig(policy.OnDemand, true))
	b := runIS(t, npb.ClassS, 2, 2, omx.DefaultConfig(policy.OnDemand, true))
	if a.Elapsed != b.Elapsed {
		t.Fatalf("identical runs took %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestISResultString(t *testing.T) {
	r := npb.Result{Class: npb.ClassS, Ranks: 4, Verified: true,
		Elapsed: 5 * sim.Millisecond, MopsTotal: 42}
	if r.String() == "" {
		t.Fatal("empty string")
	}
	r.Verified = false
	if r.String() == "" {
		t.Fatal("empty string for failed run")
	}
}

func TestCGSmallMessagesUnaffectedByPinningPolicy(t *testing.T) {
	// The paper's negative result: small-message NAS kernels "do not vary
	// much" across pinning models, because only large messages pin.
	measure := func(pol policy.Policy, cacheOn bool) sim.Duration {
		cl, err := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 2,
			OMX: omx.DefaultConfig(pol, cacheOn)})
		if err != nil {
			t.Fatal(err)
		}
		var res npb.CGResult
		cl.Run(func(c *mpi.Comm) {
			r := npb.RunCG(c, npb.CGClassA)
			if c.Rank() == 0 {
				res = r
			}
		})
		if !res.Verified {
			t.Fatalf("CG failed under %s", pol.Name())
		}
		// No pinning at all should have happened: everything is eager.
		for _, ep := range cl.Endpoints {
			if ep.Manager().Stats().PagesPinned != 0 {
				t.Fatalf("%s: CG pinned pages despite eager-only traffic", pol.Name())
			}
		}
		return res.Elapsed
	}
	base := measure(policy.PinEachComm, false)
	cached := measure(policy.OnDemand, true)
	overlapped := measure(policy.Overlapped, false)
	for name, v := range map[string]sim.Duration{"cache": cached, "overlap": overlapped} {
		diff := float64(base-v) / float64(base) * 100
		if diff > 1.0 || diff < -1.0 {
			t.Errorf("%s changed CG runtime by %.2f%%, paper says it should not vary", name, diff)
		}
	}
}

func TestCGDeterministicResidual(t *testing.T) {
	run := func() float64 {
		cl, _ := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 2,
			OMX: omx.DefaultConfig(policy.OnDemand, true)})
		var res npb.CGResult
		cl.Run(func(c *mpi.Comm) {
			r := npb.RunCG(c, npb.CGClassS)
			if c.Rank() == 0 {
				res = r
			}
		})
		return res.Residual
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("residuals differ: %v vs %v", a, b)
	}
}
