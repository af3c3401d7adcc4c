package scenario

import (
	"bytes"
	"testing"

	"omxsim/internal/cluster"
	"omxsim/internal/kv"
	"omxsim/internal/mpi"
	"omxsim/internal/sim"
)

// TestHogsStayInsideChurnBuffer: both churn hogs, the pressure workload's
// and the kv server's, write only their churn bytes. A 10,000-byte churn
// buffer ends 1,808 bytes into its third page, so a hog that writes whole
// pages runs over the allocation behind it; a canary planted there must
// keep its bytes through the run.
func TestHogsStayInsideChurnBuffer(t *testing.T) {
	const churnBytes = 10000
	for _, tc := range []struct {
		name     string
		workload Workload
	}{
		{"pressure", pressureWorkload(3, 64<<10, churnBytes, 20*sim.Microsecond)},
		{"kv", kvWorkload(kv.Config{
			Servers:     1,
			Keys:        8,
			ValueBytes:  64 << 10,
			Theta:       0.99,
			ChurnBytes:  churnBytes,
			ChurnPeriod: 20 * sim.Microsecond,
			Tenants:     []kv.Tenant{{Name: "t0", Ops: 20, Rate: 20000, GetFrac: 0.5, MaxInflight: 4}},
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Scenario{
				Name:        "hog-canary-" + tc.name,
				Description: "churn hog with a canary behind its buffer",
				Cluster:     cluster.Config{Nodes: 2},
				Workload:    withCanary(t, churnBytes, tc.workload),
			}
			if _, err := s.Run(Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// withCanary runs body with a canary allocation right behind a free hole
// the size of a churnBytes allocation. The malloc arena is first fit, so
// the first allocation of the body that fits the hole, its churn buffer,
// lands there and the canary is the allocation after it. The canary's
// bytes are checked once the body returns.
func withCanary(t *testing.T, churnBytes int, body Workload) Workload {
	return func(c *mpi.Comm, cr *CaseRun) {
		want := bytes.Repeat([]byte{0xC5}, 256)
		hole := c.Malloc(churnBytes)
		canary := c.Malloc(len(want))
		c.WriteBytes(canary, want)
		c.Free(hole)
		body(c, cr)
		if got := c.ReadBytes(canary, len(want)); !bytes.Equal(got, want) {
			t.Errorf("rank %d: a write ran over the end of the churn buffer into the next allocation", c.Rank())
		}
	}
}
