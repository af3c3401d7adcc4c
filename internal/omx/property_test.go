package omx

import (
	"bytes"
	"fmt"
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

// TestPropRandomTrafficIntegrity replays 25 random inputs through the
// FuzzTraffic body.
func TestPropRandomTrafficIntegrity(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			data := make([]byte, trafficHeader+trafficMsgs*trafficMsgBytes)
			rand.New(rand.NewSource(seed)).Read(data)
			checkTraffic(t, data)
		})
	}
}

// FuzzTraffic drives a message mix between two nodes — eager and
// rendezvous sizes under a random policy, with or without the region
// cache, receive copies on the core or on I/OAT, optional periodic frame
// loss through DropFilter, and overlapped pinning behind a one-page sync
// prefix with the application on the interrupt core (the paper's §4.3
// overload), so pull requests and replies outrun the pin (overlap
// misses) — and checks the end-to-end invariant behind all the paper's
// optimizations: whatever the pinning model does, every byte arrives
// intact and in order, and no pin leaks. Some sends free their buffer
// mid-transfer, so the sender aborts, and replies still in flight are
// recycled early on the receiver's late-fragment path. After every event
// it also checks that no node's free list holds a frame, pull request or
// pull reply twice.
//
// The input is a 3-byte header (policy; flags: cache, I/OAT, one-page
// sync prefix, loss, application on the interrupt core; loss period),
// then up to six 4-byte messages (size class, two size bytes, and a byte
// whose low bit frees the send buffer after a delay its other bits
// choose).
func FuzzTraffic(f *testing.F) {
	f.Fuzz(checkTraffic)
}

const (
	trafficHeader   = 3
	trafficMsgBytes = 4
	trafficMsgs     = 6
)

// trafficMsg is one decoded FuzzTraffic message.
type trafficMsg struct {
	size    int
	free    bool         // free the send buffer mid-transfer
	freeAft sim.Duration // ... this long after the send starts
	payload []byte
}

func checkTraffic(t *testing.T, data []byte) {
	if len(data) < trafficHeader {
		return
	}
	policies := []policy.Policy{policy.PinEachComm, policy.OnDemand, policy.Overlapped}
	flags := data[1]
	cfg := DefaultConfig(policies[int(data[0])%len(policies)], flags&1 != 0)
	cfg.UseIOAT = flags&2 != 0
	if flags&4 != 0 {
		cfg.SyncPrefixPages, cfg.PinChunkPages = 1, 1
	}
	cfg.RetransmitTimeout = 2 * sim.Millisecond
	var msgs []trafficMsg
	for rec := data[trafficHeader:]; len(rec) >= trafficMsgBytes && len(msgs) < trafficMsgs; rec = rec[trafficMsgBytes:] {
		bits := int(rec[1])<<8 | int(rec[2])
		m := trafficMsg{free: rec[3]&1 != 0, freeAft: sim.Duration(rec[3]>>1) * 20 * sim.Microsecond}
		switch rec[0] % 3 {
		case 0:
			m.size = 1 + bits%(32*1024) // eager
		case 1:
			m.size = 32*1024 + 1 + bits*4%(256*1024) // small rendezvous
		default:
			m.size = 1 << (20 + bits%2) // 1-2 MiB
		}
		m.payload = make([]byte, m.size)
		rand.New(rand.NewSource(int64(bits)<<8 | int64(len(msgs)))).Read(m.payload)
		msgs = append(msgs, m)
	}

	appCore := 1
	if flags&16 != 0 {
		appCore = 0
	}
	eng := sim.NewEngine(int64(data[0]) + 1)
	fabric := ethernet.NewFabric(eng, ethernet.DefaultLinkConfig())
	n0 := NewNode(eng, fabric, cpu.XeonE5460, 0)
	n1 := NewNode(eng, fabric, cpu.XeonE5460, 1)
	a, err := n0.OpenEndpoint(0, appCore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n1.OpenEndpoint(0, appCore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if flags&8 != 0 {
		count, period := 0, 20+int(data[2])%120
		fabric.DropFilter = func(fr *ethernet.Frame) bool {
			count++
			return count%period == 0
		}
	}

	// The receiver posts every receive up front, so a send that aborts
	// before its envelope leaves can cancel its receive instead of
	// leaving it posted forever.
	recvs := make([]*Request, len(msgs))
	var fail string
	sendDone, recvDone := false, false
	eng.Go("receiver", func(p *sim.Proc) {
		bufs := make([]vm.Addr, len(msgs))
		for i, m := range msgs {
			buf, err := b.Malloc(m.size)
			if err != nil {
				fail = fmt.Sprintf("receiver malloc: %v", err)
				return
			}
			bufs[i] = buf
			recvs[i] = b.Irecv(bufs[i], m.size, uint64(i), ^uint64(0))
		}
		for i, m := range msgs {
			if err := b.Wait(p, recvs[i]); err != nil {
				if !m.free {
					fail = fmt.Sprintf("receive %d of %d bytes: %v", i, m.size, err)
					return
				}
			} else {
				got := make([]byte, m.size)
				if b.AS.Read(bufs[i], got) != nil || !bytes.Equal(got, m.payload) {
					fail = fmt.Sprintf("receive %d of %d bytes delivered the wrong bytes", i, m.size)
					return
				}
			}
			if err := b.Free(bufs[i]); err != nil {
				fail = fmt.Sprintf("receiver free: %v", err)
				return
			}
		}
		recvDone = true
	})
	eng.Go("sender", func(p *sim.Proc) {
		for i, m := range msgs {
			buf, err := a.Malloc(m.size)
			if err == nil {
				err = a.AS.Write(buf, m.payload)
			}
			if err != nil {
				fail = fmt.Sprintf("sender buffer: %v", err)
				return
			}
			req := a.Isend(buf, m.size, uint64(i), b.Addr())
			if m.free {
				p.Sleep(m.freeAft)
				if err := a.Free(buf); err != nil {
					fail = fmt.Sprintf("sender free: %v", err)
					return
				}
				if a.Wait(p, req) != nil {
					b.CancelRecv(recvs[i], ErrAborted)
				}
				continue
			}
			if err := a.Wait(p, req); err != nil {
				fail = fmt.Sprintf("send %d of %d bytes: %v", i, m.size, err)
				return
			}
			if err := a.Free(buf); err != nil {
				fail = fmt.Sprintf("sender free: %v", err)
				return
			}
		}
		sendDone = true
	})
	watches := []*freeListWatch{{n: n0}, {n: n1}}
	for eng.Now() < 10*sim.Second && eng.Step() {
		for _, w := range watches {
			if dup := w.check(); dup != "" {
				t.Fatal(dup)
			}
		}
	}
	if fail != "" {
		t.Fatal(fail)
	}
	if !sendDone || !recvDone {
		t.Fatalf("traffic hung: sender done %v, receiver done %v", sendDone, recvDone)
	}
	if n0.InFlightRequests() != 0 || n1.InFlightRequests() != 0 {
		t.Fatalf("requests still in flight: %d and %d", n0.InFlightRequests(), n1.InFlightRequests())
	}
	// Buffers above the mmap threshold were freed -> munmap -> notifier
	// -> unpinned. Arena-sized buffers legitimately stay pinned (their
	// free never reaches the kernel — the paper's own observation about
	// kernel-level hooks); endpoint close must reclaim everything.
	a.Close()
	b.Close()
	if a.Manager().PinnedPages() != 0 || b.Manager().PinnedPages() != 0 {
		t.Fatalf("pins leaked: %d and %d pages", a.Manager().PinnedPages(), b.Manager().PinnedPages())
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
