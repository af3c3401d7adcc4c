package omx

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

// TestCrashAbortsInSequenceOrder crashes a node while its endpoint has a
// rendezvous send in flight to each of four peers. Every abort wakes its
// waiter, so the requests must complete in (peer address, sequence
// number) order on every run, not in Go's randomized map order. The run
// repeats 40 times: with Go 1.24's maps a walk in map order comes out
// sorted in about 5 of 8 runs, so it passes all 40 with odds below 1 in
// 10^8.
func TestCrashAbortsInSequenceOrder(t *testing.T) {
	const peers, runs, size = 4, 40, 256 << 10
	cfg := DefaultConfig(policy.OnDemand, true)
	want := []int{0, 1, 2, 3}
	for run := 0; run < runs; run++ {
		eng := sim.NewEngine(11)
		fabric := ethernet.NewFabric(eng, ethernet.DefaultLinkConfig())
		n0 := NewNode(eng, fabric, cpu.XeonE5460, 0)
		a, err := n0.OpenEndpoint(0, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := a.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		var woke []int
		for i := 0; i < peers; i++ {
			b, err := NewNode(eng, fabric, cpu.XeonE5460, i+1).OpenEndpoint(0, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The peers post no receive, so every send stays in flight.
			req := a.Isend(buf, size, uint64(i), b.Addr())
			eng.Go(fmt.Sprintf("waiter %d", i), func(pr *sim.Proc) {
				if err := a.Wait(pr, req); !errors.Is(err, ErrPeerDead) {
					t.Errorf("run %d: send to peer %d ended with %v, want ErrPeerDead", run, i, err)
				}
				woke = append(woke, i)
			})
		}
		eng.After(50*sim.Microsecond, n0.Crash)
		eng.Run()
		if !slices.Equal(woke, want) {
			t.Fatalf("run %d: the crash completed the sends in order %v, want %v", run, woke, want)
		}
	}
}
