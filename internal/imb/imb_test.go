package imb_test

import (
	"testing"

	"omxsim/internal/cluster"
	"omxsim/internal/imb"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

func run(t *testing.T, ranksPerNode int, body func(c *mpi.Comm)) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Nodes:        2,
		RanksPerNode: ranksPerNode,
		OMX:          omx.DefaultConfig(policy.OnDemand, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(body)
	return cl
}

func TestPingPongProducesThroughput(t *testing.T) {
	var res imb.Result
	run(t, 1, func(c *mpi.Comm) {
		r := imb.PingPong(c, 1<<20, 5)
		if c.Rank() == 0 {
			res = r
		}
	})
	if res.MBps < 500 || res.MBps > 1300 {
		t.Fatalf("PingPong 1MiB = %.0f MiB/s, implausible", res.MBps)
	}
	if res.AvgTime <= 0 {
		t.Fatal("no time measured")
	}
}

func TestPingPongIdleRanksReturn(t *testing.T) {
	// Ranks >= 2 must pass straight through the barriers.
	finished := 0
	run(t, 2, func(c *mpi.Comm) {
		imb.PingPong(c, 64*1024, 3)
		finished++
	})
	if finished != 4 {
		t.Fatalf("only %d/4 ranks finished", finished)
	}
}

func TestAllKernelsCompleteAllSizes(t *testing.T) {
	sizes := []int{8, 4096, 128 * 1024}
	for _, k := range imb.Table2Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			var total sim.Duration
			run(t, 2, func(c *mpi.Comm) {
				tt, results := imb.RunSweep(c, k, sizes)
				if c.Rank() == 0 {
					total = tt
					if len(results) != len(sizes) {
						t.Errorf("got %d results", len(results))
					}
				}
			})
			if total <= 0 {
				t.Fatalf("%s: zero total time", k.Name)
			}
		})
	}
}

func TestSendRecvThroughputCountsBothDirections(t *testing.T) {
	var res imb.Result
	run(t, 1, func(c *mpi.Comm) {
		r := imb.SendRecv(c, 1<<20, 5)
		if c.Rank() == 0 {
			res = r
		}
	})
	// Bidirectional over a full-duplex link: must exceed unidirectional peak.
	if res.MBps < 1000 {
		t.Fatalf("SendRecv 1MiB = %.0f MiB/s, expected ~2x unidirectional", res.MBps)
	}
}

func TestIterationsSchedule(t *testing.T) {
	if imb.Iterations(64) <= imb.Iterations(1<<20) {
		t.Fatal("small messages should iterate more")
	}
	if imb.Iterations(16<<20) < 1 {
		t.Fatal("zero iterations for large size")
	}
}

func TestSizeSchedules(t *testing.T) {
	def := imb.DefaultSizes()
	if def[0] != 4 || def[len(def)-1] != 4<<20 {
		t.Fatalf("DefaultSizes = %v..%v", def[0], def[len(def)-1])
	}
	lg := imb.LargeSizes()
	if lg[0] != 64*1024 || lg[len(lg)-1] != 16<<20 {
		t.Fatalf("LargeSizes = %v..%v", lg[0], lg[len(lg)-1])
	}
	for i := 1; i < len(lg); i++ {
		if lg[i] != lg[i-1]*2 {
			t.Fatal("LargeSizes not doubling")
		}
	}
}

func TestResultString(t *testing.T) {
	r := imb.Result{Benchmark: "PingPong", Size: 1024, Iterations: 10, AvgTime: 5000, MBps: 123.4}
	s := r.String()
	if s == "" {
		t.Fatal("empty result string")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	measure := func() sim.Duration {
		var res imb.Result
		run(t, 1, func(c *mpi.Comm) {
			r := imb.PingPong(c, 256*1024, 4)
			if c.Rank() == 0 {
				res = r
			}
		})
		return res.AvgTime
	}
	a, b := measure(), measure()
	if a != b {
		t.Fatalf("identical runs measured %v vs %v", a, b)
	}
}

func TestExtraKernelsComplete(t *testing.T) {
	sizes := []int{4096, 128 * 1024}
	for _, k := range imb.AllKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			var res []imb.Result
			run(t, 2, func(c *mpi.Comm) {
				_, rs := imb.RunSweep(c, k, sizes)
				if c.Rank() == 0 {
					res = rs
				}
			})
			for _, r := range res {
				if r.AvgTime <= 0 {
					t.Fatalf("%s size %d: non-positive time", k.Name, r.Size)
				}
			}
		})
	}
}

func TestPingPingFullDuplex(t *testing.T) {
	var pp, ping imb.Result
	run(t, 1, func(c *mpi.Comm) {
		a := imb.PingPong(c, 1<<20, 5)
		b := imb.PingPing(c, 1<<20, 5)
		if c.Rank() == 0 {
			pp, ping = a, b
		}
	})
	// PingPing overlaps both directions: per-message time must beat
	// PingPong's round trip and approach its half-round-trip.
	if ping.AvgTime >= pp.AvgTime*2 {
		t.Fatalf("PingPing %v vs PingPong half-RTT %v: no overlap", ping.AvgTime, pp.AvgTime)
	}
}

func TestBarrierLatency(t *testing.T) {
	var r imb.Result
	run(t, 2, func(c *mpi.Comm) {
		res := imb.Barrier(c, 0, 20)
		if c.Rank() == 0 {
			r = res
		}
	})
	// A 4-rank barrier over a 10G link with 5us interrupt latency lands in
	// the tens of microseconds.
	if r.AvgTime < 10*1000 || r.AvgTime > 500*1000 {
		t.Fatalf("barrier latency = %v, implausible", r.AvgTime)
	}
}
