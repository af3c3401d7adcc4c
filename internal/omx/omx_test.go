package omx

import (
	"bytes"
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// pair is a two-node test cluster with one endpoint per node.
type pair struct {
	eng    *sim.Engine
	fabric *ethernet.Fabric
	n0, n1 *Node
	a, b   *Endpoint
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	eng := sim.NewEngine(11)
	fabric := ethernet.NewFabric(eng, ethernet.DefaultLinkConfig())
	n0 := NewNode(eng, fabric, cpu.XeonE5460, 0)
	n1 := NewNode(eng, fabric, cpu.XeonE5460, 1)
	// Application on core 1, bottom halves on core 0 (the normal layout).
	a, err := n0.OpenEndpoint(0, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n1.OpenEndpoint(0, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &pair{eng: eng, fabric: fabric, n0: n0, n1: n1, a: a, b: b}
}

// fill writes a deterministic pattern of n bytes at addr.
func fill(t *testing.T, ep *Endpoint, addr vm.Addr, n int, seed byte) []byte {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)*7 + seed
	}
	if err := ep.AS.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// transfer sends n bytes a->b and verifies integrity; returns the elapsed
// simulated time.
func transfer(t *testing.T, p *pair, n int) sim.Duration {
	t.Helper()
	sbuf, err := p.a.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	rbuf, err := p.b.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, p.a, sbuf, n, 3)
	start := p.eng.Now()
	var elapsed sim.Duration
	okA, okB := false, false
	p.eng.Go("sender", func(pr *sim.Proc) {
		req := p.a.Isend(sbuf, n, 42, p.b.Addr())
		if err := p.a.Wait(pr, req); err != nil {
			t.Errorf("send: %v", err)
		}
		okA = true
	})
	p.eng.Go("receiver", func(pr *sim.Proc) {
		req := p.b.Irecv(rbuf, n, 42, ^uint64(0))
		if err := p.b.Wait(pr, req); err != nil {
			t.Errorf("recv: %v", err)
		}
		if req.RecvLen != n || req.RecvMatch != 42 || req.RecvSrc != p.a.Addr() {
			t.Errorf("status = %d/%d/%v", req.RecvLen, req.RecvMatch, req.RecvSrc)
		}
		elapsed = pr.Now() - start
		okB = true
	})
	p.eng.Run()
	if !okA || !okB {
		t.Fatal("transfer did not complete")
	}
	got := make([]byte, n)
	if err := p.b.AS.Read(rbuf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("data corrupted over %d bytes", n)
	}
	return elapsed
}

func TestEagerRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, 4096, 9000, 32 * 1024} {
		p := newPair(t, DefaultConfig(policy.OnDemand, true))
		if n == 0 {
			// Zero-byte message: envelope only.
			var done bool
			p.eng.Go("r", func(pr *sim.Proc) {
				req := p.b.Irecv(0, 0, 7, ^uint64(0))
				_ = req
				p.b.Wait(pr, req)
				done = true
			})
			p.eng.Go("s", func(pr *sim.Proc) {
				req := p.a.Isend(0, 0, 7, p.b.Addr())
				p.a.Wait(pr, req)
			})
			p.eng.Run()
			if !done {
				t.Fatal("zero-byte message never delivered")
			}
			continue
		}
		transfer(t, p, n)
		// Eager path must not pin anything.
		if p.a.Manager().Stats().PagesPinned != 0 || p.b.Manager().Stats().PagesPinned != 0 {
			t.Fatalf("n=%d: eager path pinned pages", n)
		}
	}
}

func TestLargeTransferAllPolicies(t *testing.T) {
	for _, pol := range []policy.Policy{policy.PinEachComm, policy.Permanent, policy.OnDemand, policy.Overlapped} {
		for _, cacheOn := range []bool{false, true} {
			if pol == policy.Permanent && !cacheOn {
				continue // permanent pinning requires cached declarations
			}
			for _, ioat := range []bool{false, true} {
				cfg := DefaultConfig(pol, cacheOn)
				cfg.UseIOAT = ioat
				p := newPair(t, cfg)
				transfer(t, p, 1<<20)
				st := p.b.Manager().Stats()
				if pol != policy.Permanent && st.PagesPinned == 0 {
					t.Fatalf("%s/cache=%v: receive region never pinned", pol.Name(), cacheOn)
				}
			}
		}
	}
}

func TestLargeTransfer16MB(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.Overlapped, true))
	elapsed := transfer(t, p, 16<<20)
	mibps := float64(16<<20) / elapsed.Seconds() / (1 << 20)
	// 10G wire, I/OAT off: copy-bound, but must still be high hundreds of MiB/s.
	if mibps < 500 || mibps > 1300 {
		t.Fatalf("throughput %.0f MiB/s implausible", mibps)
	}
}

func TestPinEachCommUnpinsAfterTransfer(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.PinEachComm, false))
	transfer(t, p, 1<<20)
	if got := p.a.Manager().PinnedPages(); got != 0 {
		t.Fatalf("sender still has %d pinned pages", got)
	}
	if got := p.b.Manager().PinnedPages(); got != 0 {
		t.Fatalf("receiver still has %d pinned pages", got)
	}
	if p.a.Manager().NumRegions() != 0 || p.b.Manager().NumRegions() != 0 {
		t.Fatal("regions leaked in no-cache mode")
	}
}

func TestCacheHitOnReuse(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	n := 1 << 20
	sbuf, _ := p.a.Malloc(n)
	rbuf, _ := p.b.Malloc(n)
	fill(t, p.a, sbuf, n, 1)
	p.eng.Go("app", func(pr *sim.Proc) {
		for i := 0; i < 3; i++ {
			rr := p.b.Irecv(rbuf, n, 1, ^uint64(0))
			sr := p.a.Isend(sbuf, n, 1, p.b.Addr())
			p.a.Wait(pr, sr)
			p.b.Wait(pr, rr)
		}
	})
	p.eng.Run()
	// One miss then hits; one driver pin total (stays pinned).
	if st := p.a.Cache().Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("sender cache stats = %+v", st)
	}
	if st := p.a.Manager().Stats(); st.PinOps != 1 {
		t.Fatalf("sender pinned %d times, want 1", st.PinOps)
	}
	if st := p.b.Manager().Stats(); st.PinOps != 1 {
		t.Fatalf("receiver pinned %d times, want 1", st.PinOps)
	}
}

func TestUnexpectedMessageMatchedLater(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	n := 1 << 20
	sbuf, _ := p.a.Malloc(n)
	rbuf, _ := p.b.Malloc(n)
	want := fill(t, p.a, sbuf, n, 9)
	var recvDone bool
	p.eng.Go("s", func(pr *sim.Proc) {
		p.a.Wait(pr, p.a.Isend(sbuf, n, 5, p.b.Addr()))
	})
	p.eng.Go("r", func(pr *sim.Proc) {
		pr.Sleep(2 * sim.Millisecond) // rndv arrives long before the recv posts
		req := p.b.Irecv(rbuf, n, 5, ^uint64(0))
		if err := p.b.Wait(pr, req); err != nil {
			t.Errorf("recv: %v", err)
		}
		recvDone = true
	})
	p.eng.Run()
	if !recvDone {
		t.Fatal("late-posted receive never completed")
	}
	got := make([]byte, n)
	p.b.AS.Read(rbuf, got)
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted via unexpected path")
	}
}

func TestMatchingMaskAndOrder(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	n := 8192
	s1, _ := p.a.Malloc(n)
	s2, _ := p.a.Malloc(n)
	r1, _ := p.b.Malloc(n)
	r2, _ := p.b.Malloc(n)
	d1 := fill(t, p.a, s1, n, 10)
	d2 := fill(t, p.a, s2, n, 20)
	var m1, m2 uint64
	p.eng.Go("r", func(pr *sim.Proc) {
		// Match only on the low 32 bits (tag), any source bits.
		ra := p.b.Irecv(r1, n, 0x100, 0xffffffff)
		rb := p.b.Irecv(r2, n, 0x200, 0xffffffff)
		_ = rb
		p.b.Wait(pr, ra)
		m1 = ra.RecvMatch
	})
	_ = m2
	p.eng.Go("s", func(pr *sim.Proc) {
		p.a.Wait(pr, p.a.Isend(s1, n, 0xdead00000100, p.b.Addr()))
		p.a.Wait(pr, p.a.Isend(s2, n, 0xbeef00000200, p.b.Addr()))
	})
	p.eng.Run()
	if m1 != 0xdead00000100 {
		t.Fatalf("masked match got %#x", m1)
	}
	g1 := make([]byte, n)
	p.b.AS.Read(r1, g1)
	if !bytes.Equal(g1, d1) {
		t.Fatal("message 1 landed in wrong buffer")
	}
	_ = d2
}

func TestTruncationErrors(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	sbuf, _ := p.a.Malloc(256 * 1024)
	rbuf, _ := p.b.Malloc(64 * 1024)
	fill(t, p.a, sbuf, 256*1024, 1)
	var recvErr, sendErr error
	p.eng.Go("r", func(pr *sim.Proc) {
		req := p.b.Irecv(rbuf, 64*1024, 9, ^uint64(0))
		recvErr = p.b.Wait(pr, req)
	})
	p.eng.Go("s", func(pr *sim.Proc) {
		sendErr = p.a.Wait(pr, p.a.Isend(sbuf, 256*1024, 9, p.b.Addr()))
	})
	p.eng.Run()
	if recvErr == nil {
		t.Fatal("truncated receive did not error")
	}
	if sendErr != nil {
		t.Fatalf("sender errored on truncation: %v", sendErr)
	}
}

func TestEagerTruncation(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	sbuf, _ := p.a.Malloc(16 * 1024)
	rbuf, _ := p.b.Malloc(4 * 1024)
	want := fill(t, p.a, sbuf, 16*1024, 2)
	var recvErr error
	var got int
	p.eng.Go("r", func(pr *sim.Proc) {
		req := p.b.Irecv(rbuf, 4*1024, 9, ^uint64(0))
		recvErr = p.b.Wait(pr, req)
		got = req.RecvLen
	})
	p.eng.Go("s", func(pr *sim.Proc) {
		p.a.Wait(pr, p.a.Isend(sbuf, 16*1024, 9, p.b.Addr()))
	})
	p.eng.Run()
	if recvErr == nil || got != 4*1024 {
		t.Fatalf("err=%v len=%d, want truncation error and 4096", recvErr, got)
	}
	g := make([]byte, 4*1024)
	p.b.AS.Read(rbuf, g)
	if !bytes.Equal(g, want[:4*1024]) {
		t.Fatal("truncated prefix corrupted")
	}
}

func TestMessageOrderingPreserved(t *testing.T) {
	// Two same-tag messages must match posted receives in send order.
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	n := 128 * 1024
	s1, _ := p.a.Malloc(n)
	s2, _ := p.a.Malloc(n)
	r1, _ := p.b.Malloc(n)
	r2, _ := p.b.Malloc(n)
	d1 := fill(t, p.a, s1, n, 1)
	d2 := fill(t, p.a, s2, n, 2)
	p.eng.Go("r", func(pr *sim.Proc) {
		ra := p.b.Irecv(r1, n, 7, ^uint64(0))
		rb := p.b.Irecv(r2, n, 7, ^uint64(0))
		p.b.WaitAll(pr, ra, rb)
	})
	p.eng.Go("s", func(pr *sim.Proc) {
		q1 := p.a.Isend(s1, n, 7, p.b.Addr())
		q2 := p.a.Isend(s2, n, 7, p.b.Addr())
		p.a.WaitAll(pr, q1, q2)
	})
	p.eng.Run()
	g1 := make([]byte, n)
	g2 := make([]byte, n)
	p.b.AS.Read(r1, g1)
	p.b.AS.Read(r2, g2)
	if !bytes.Equal(g1, d1) || !bytes.Equal(g2, d2) {
		t.Fatal("same-tag messages matched out of order")
	}
}

func TestVectorialSendRecv(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	a1, _ := p.a.Malloc(300 * 1024)
	a2, _ := p.a.Malloc(300 * 1024)
	b1, _ := p.b.Malloc(400 * 1024)
	b2, _ := p.b.Malloc(400 * 1024)
	d1 := fill(t, p.a, a1, 300*1024, 3)
	d2 := fill(t, p.a, a2, 300*1024, 4)
	p.eng.Go("r", func(pr *sim.Proc) {
		req := p.b.IrecvV([]Segment{{Addr: b1, Len: 400 * 1024}, {Addr: b2, Len: 200 * 1024}}, 1, ^uint64(0))
		if err := p.b.Wait(pr, req); err != nil {
			t.Errorf("recv: %v", err)
		}
	})
	p.eng.Go("s", func(pr *sim.Proc) {
		req := p.a.IsendV([]Segment{{Addr: a1, Len: 300 * 1024}, {Addr: a2, Len: 300 * 1024}}, 1, p.b.Addr())
		if err := p.a.Wait(pr, req); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	p.eng.Run()
	// 600 KiB sent; first 400 KiB land in b1, next 200 KiB in b2.
	g := make([]byte, 400*1024)
	p.b.AS.Read(b1, g)
	if !bytes.Equal(g[:300*1024], d1) || !bytes.Equal(g[300*1024:], d2[:100*1024]) {
		t.Fatal("vectorial segment 1 corrupted")
	}
	g2 := make([]byte, 200*1024)
	p.b.AS.Read(b2, g2)
	if !bytes.Equal(g2, d2[100*1024:]) {
		t.Fatal("vectorial segment 2 corrupted")
	}
}

func TestPacketLossRecovery(t *testing.T) {
	cfg := DefaultConfig(policy.OnDemand, true)
	cfg.RetransmitTimeout = 2 * sim.Millisecond
	p := newPair(t, cfg)
	// Drop ~2% of all frames, deterministically.
	count := 0
	p.fabric.DropFilter = func(fr *ethernet.Frame) bool {
		count++
		return count%50 == 0
	}
	transfer(t, p, 4<<20)
	if p.n1.Stats().ReRequests == 0 && p.n0.Stats().Retransmits == 0 && p.n1.Stats().Retransmits == 0 {
		t.Fatal("no recovery activity despite 2% loss")
	}
}

func TestEagerLossRecovery(t *testing.T) {
	cfg := DefaultConfig(policy.OnDemand, true)
	cfg.RetransmitTimeout = sim.Millisecond
	p := newPair(t, cfg)
	count := 0
	p.fabric.DropFilter = func(fr *ethernet.Frame) bool {
		count++
		return count == 2 // drop the second frame (an eager frag)
	}
	transfer(t, p, 30*1024)
	if p.n0.Stats().Retransmits == 0 {
		t.Fatal("dropped eager fragment never retransmitted")
	}
}

func TestInvalidSendBufferAborts(t *testing.T) {
	// Paper §3.1: invalid region declares fine; the request aborts when
	// pinning fails at communication time.
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	rbuf, _ := p.b.Malloc(1 << 20)
	var sendErr error
	p.eng.Go("s", func(pr *sim.Proc) {
		req := p.a.Isend(0xdead0000, 1<<20, 3, p.b.Addr()) // unmapped address
		sendErr = p.a.Wait(pr, req)
	})
	p.eng.Go("r", func(pr *sim.Proc) {
		p.b.Irecv(rbuf, 1<<20, 3, ^uint64(0))
	})
	p.eng.RunUntil(sim.Second)
	if sendErr == nil {
		t.Fatal("send from unmapped buffer did not abort")
	}
}

func TestSendToSelfLoopback(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	p.fabric.LoopbackBytesPerSec = 4e9
	n := 256 * 1024
	sbuf, _ := p.a.Malloc(n)
	rbuf, _ := p.a.Malloc(n)
	want := fill(t, p.a, sbuf, n, 6)
	p.eng.Go("self", func(pr *sim.Proc) {
		rr := p.a.Irecv(rbuf, n, 2, ^uint64(0))
		sr := p.a.Isend(sbuf, n, 2, p.a.Addr())
		p.a.WaitAll(pr, sr, rr)
	})
	p.eng.Run()
	got := make([]byte, n)
	p.a.AS.Read(rbuf, got)
	if !bytes.Equal(got, want) {
		t.Fatal("loopback data corrupted")
	}
}

func TestManySmallMessagesBothDirections(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	const iters = 50
	n := 2048
	abuf, _ := p.a.Malloc(n)
	bbuf, _ := p.b.Malloc(n)
	arecv, _ := p.a.Malloc(n)
	brecv, _ := p.b.Malloc(n)
	fill(t, p.a, abuf, n, 1)
	fill(t, p.b, bbuf, n, 2)
	p.eng.Go("a", func(pr *sim.Proc) {
		for i := 0; i < iters; i++ {
			sr := p.a.Isend(abuf, n, uint64(i), p.b.Addr())
			rr := p.a.Irecv(arecv, n, uint64(i), ^uint64(0))
			if err := p.a.WaitAll(pr, sr, rr); err != nil {
				t.Errorf("iter %d: %v", i, err)
				return
			}
		}
	})
	p.eng.Go("b", func(pr *sim.Proc) {
		for i := 0; i < iters; i++ {
			rr := p.b.Irecv(brecv, n, uint64(i), ^uint64(0))
			if err := p.b.Wait(pr, rr); err != nil {
				t.Errorf("iter %d: %v", i, err)
				return
			}
			sr := p.b.Isend(bbuf, n, uint64(i), p.a.Addr())
			if err := p.b.Wait(pr, sr); err != nil {
				t.Errorf("iter %d: %v", i, err)
				return
			}
		}
	})
	p.eng.Run()
}

func TestFreeDuringTransferAborts(t *testing.T) {
	// Freeing the receive buffer mid-pull invalidates the region; the
	// receive must abort rather than DMA into freed memory.
	cfg := DefaultConfig(policy.Overlapped, true)
	cfg.RetransmitTimeout = 500 * sim.Microsecond
	p := newPair(t, cfg)
	n := 8 << 20
	sbuf, _ := p.a.Malloc(n)
	rbuf, _ := p.b.Malloc(n)
	fill(t, p.a, sbuf, n, 1)
	var recvErr error
	recvDone := false
	p.eng.Go("r", func(pr *sim.Proc) {
		req := p.b.Irecv(rbuf, n, 1, ^uint64(0))
		pr.Sleep(2 * sim.Millisecond) // transfer is mid-flight
		if err := p.b.Free(rbuf); err != nil {
			t.Errorf("free: %v", err)
		}
		recvErr = p.b.Wait(pr, req)
		recvDone = true
	})
	p.eng.Go("s", func(pr *sim.Proc) {
		p.a.Wait(pr, p.a.Isend(sbuf, n, 1, p.b.Addr()))
	})
	p.eng.RunUntil(2 * sim.Second)
	if !recvDone {
		t.Fatal("receive hung after buffer was freed mid-transfer")
	}
	if recvErr == nil {
		t.Fatal("receive succeeded despite freed buffer")
	}
	if p.b.Manager().PinnedPages() != 0 {
		t.Fatal("pinned pages leaked after abort")
	}
}

func TestEndpointOpenCloseLifecycle(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	if _, err := p.n0.OpenEndpoint(0, 1, DefaultConfig(policy.OnDemand, true)); err == nil {
		t.Fatal("duplicate endpoint id accepted")
	}
	ep2, err := p.n0.OpenEndpoint(5, 2, DefaultConfig(policy.OnDemand, true))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := p.n0.Endpoint(5); !ok || got != ep2 {
		t.Fatal("endpoint lookup failed")
	}
	ep2.Close()
	if _, ok := p.n0.Endpoint(5); ok {
		t.Fatal("closed endpoint still registered")
	}
}

// TestAllocsBottomHalf: a received frame's bottom half is queued and run
// without allocating: the handler is bound once per endpoint and takes the
// payload as its argument. The notify ack names no receive, so its handler
// only looks the message up. The node owns each frame it is handed and
// recycles it, so every delivery re-arms the frame from its pool.
func TestAllocsBottomHalf(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.Overlapped, true))
	ack := &notifyAck{src: p.a.addr, dst: p.b.addr, seq: 99}
	deliver := func() {
		fr := p.n1.pool.frames.get()
		fr.Dst, fr.Payload = 1, ack
		p.n1.onFrame(fr)
		p.eng.Run()
	}
	rx := p.n1.RxCoreFor(0)
	deliver()
	if n := testing.AllocsPerRun(200, deliver); n != 0 {
		t.Fatalf("one bottom half allocates %.1f/op, want 0", n)
	}
	if got := rx.Completed(cpu.BottomHalf); got != 202 {
		t.Fatalf("rx core completed %d bottom halves, want 202", got)
	}
}
