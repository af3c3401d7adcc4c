package omx

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// TestPropRandomTrafficIntegrity drives random message mixes (eager and
// rendezvous sizes, both directions, random policies, occasional frame
// loss) and verifies that every byte arrives intact, in order, and that no
// pinned pages leak afterwards. This is the end-to-end invariant behind
// all the paper's optimizations: whatever the pinning model does, the data
// path must stay correct.
func TestPropRandomTrafficIntegrity(t *testing.T) {
	policies := []policy.Policy{policy.PinEachComm, policy.OnDemand, policy.Overlapped}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pol := policies[rng.Intn(len(policies))]
		cacheOn := rng.Intn(2) == 0
		cfg := DefaultConfig(pol, cacheOn)
		cfg.UseIOAT = rng.Intn(2) == 0
		cfg.RetransmitTimeout = 2 * sim.Millisecond

		eng := sim.NewEngine(seed)
		fabric := ethernet.NewFabric(eng, ethernet.DefaultLinkConfig())
		n0 := NewNode(eng, fabric, cpu.XeonE5460, 0)
		n1 := NewNode(eng, fabric, cpu.XeonE5460, 1)
		a, err := n0.OpenEndpoint(0, 1, cfg)
		if err != nil {
			return false
		}
		b, err := n1.OpenEndpoint(0, 1, cfg)
		if err != nil {
			return false
		}
		// Occasional deterministic loss.
		if rng.Intn(3) == 0 {
			count := 0
			period := 40 + rng.Intn(100)
			fabric.DropFilter = func(fr *ethernet.Frame) bool {
				count++
				return count%period == 0
			}
		}

		const nMsgs = 6
		sizes := make([]int, nMsgs)
		for i := range sizes {
			switch rng.Intn(3) {
			case 0:
				sizes[i] = 1 + rng.Intn(32*1024) // eager
			case 1:
				sizes[i] = 32*1024 + 1 + rng.Intn(256*1024) // small rendezvous
			default:
				sizes[i] = 1 << (20 + rng.Intn(2)) // 1-2 MiB
			}
		}
		payloads := make([][]byte, nMsgs)
		for i, n := range sizes {
			payloads[i] = make([]byte, n)
			rng.Read(payloads[i])
		}

		ok := true
		eng.Go("sender", func(p *sim.Proc) {
			for i, n := range sizes {
				buf, err := a.Malloc(n)
				if err != nil {
					ok = false
					return
				}
				if err := a.AS.Write(buf, payloads[i]); err != nil {
					ok = false
					return
				}
				req := a.Isend(buf, n, uint64(i), b.Addr())
				if a.Wait(p, req) != nil {
					ok = false
					return
				}
				if err := a.Free(buf); err != nil {
					ok = false
					return
				}
			}
		})
		eng.Go("receiver", func(p *sim.Proc) {
			for i, n := range sizes {
				buf, err := b.Malloc(n)
				if err != nil {
					ok = false
					return
				}
				req := b.Irecv(buf, n, uint64(i), ^uint64(0))
				if b.Wait(p, req) != nil {
					ok = false
					return
				}
				got := make([]byte, n)
				if b.AS.Read(buf, got) != nil || !bytes.Equal(got, payloads[i]) {
					ok = false
					return
				}
				if err := b.Free(buf); err != nil {
					ok = false
					return
				}
			}
		})
		eng.RunUntil(10 * sim.Second)
		if !ok {
			return false
		}
		// Buffers above the mmap threshold were freed -> munmap -> notifier
		// -> unpinned. Arena-sized buffers legitimately stay pinned (their
		// free never reaches the kernel — the paper's own observation about
		// kernel-level hooks); endpoint close must reclaim everything.
		a.Close()
		b.Close()
		if a.Manager().PinnedPages() != 0 || b.Manager().PinnedPages() != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropManyConcurrentMessages posts a burst of receives then floods the
// matching queue with same-tag messages: ordering must pair them FIFO under
// every policy.
func TestPropManyConcurrentMessages(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		policies := []policy.Policy{policy.PinEachComm, policy.OnDemand, policy.Overlapped}
		cfg := DefaultConfig(policies[rng.Intn(len(policies))], rng.Intn(2) == 0)
		eng := sim.NewEngine(seed)
		fabric := ethernet.NewFabric(eng, ethernet.DefaultLinkConfig())
		n0 := NewNode(eng, fabric, cpu.XeonE5460, 0)
		n1 := NewNode(eng, fabric, cpu.XeonE5460, 1)
		a, _ := n0.OpenEndpoint(0, 1, cfg)
		b, _ := n1.OpenEndpoint(0, 1, cfg)

		const nMsgs = 8
		size := 64*1024 + rng.Intn(128*1024)
		ok := true
		eng.Go("recv", func(p *sim.Proc) {
			bufs := make([]vm.Addr, nMsgs)
			reqs := make([]*Request, nMsgs)
			for i := range reqs {
				bufs[i], _ = b.Malloc(size)
				reqs[i] = b.Irecv(bufs[i], size, 7, ^uint64(0))
			}
			for i, r := range reqs {
				if b.Wait(p, r) != nil {
					ok = false
					return
				}
				// FIFO matching: i-th posted recv gets the i-th sent message,
				// whose first byte tags its index.
				got := make([]byte, 1)
				b.AS.Read(bufs[i], got)
				if got[0] != byte(i) {
					ok = false
					return
				}
			}
		})
		eng.Go("send", func(p *sim.Proc) {
			for i := 0; i < nMsgs; i++ {
				buf, _ := a.Malloc(size)
				a.AS.Write(buf, []byte{byte(i)})
				if a.Wait(p, a.Isend(buf, size, 7, b.Addr())) != nil {
					ok = false
					return
				}
			}
		})
		eng.RunUntil(5 * sim.Second)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropRegionReadyMonotone: as a region pins, Ready must be monotone in
// both directions — once a range is Ready it stays Ready (absent
// invalidation), and Ready(off, n) implies Ready for every sub-range.
func TestPropRegionReadyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		machine := cpu.NewMachine(eng, cpu.XeonE5460)
		as := vm.NewAddressSpace(1, vm.NewPhysMem(0))
		al, _ := vm.NewAllocator(as, 0, 0)
		mgr := core.NewManager(eng, as, machine.Core(0), core.ManagerConfig{
			Policy: policy.Overlapped, PinChunkPages: 1 + rng.Intn(16),
		})
		pages := 8 + rng.Intn(64)
		addr, _ := al.Malloc(pages * vm.PageSize)
		r, err := mgr.Declare([]core.Segment{{Addr: addr, Len: pages * vm.PageSize}})
		if err != nil {
			return false
		}
		mgr.Acquire(r)
		okRanges := map[[2]int]bool{}
		violated := false
		for eng.Step() {
			for i := 0; i < 5; i++ {
				off := rng.Intn(pages * vm.PageSize)
				n := 1 + rng.Intn(pages*vm.PageSize-off)
				key := [2]int{off, n}
				ready := r.Ready(off, n)
				if okRanges[key] && !ready {
					violated = true
				}
				if ready {
					okRanges[key] = true
					// Sub-range implication.
					if n > 2 {
						if !r.Ready(off+1, n-2) {
							violated = true
						}
					}
				}
			}
		}
		return !violated && r.Pinned()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
