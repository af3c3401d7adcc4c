package omx

import (
	"testing"

	"omxsim/internal/ethernet"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

// TestPinnedPageLimitEndToEnd drives transfers over many distinct buffers
// under a tight driver pinned-page limit: the kernel LRU must keep total
// pinned pages bounded while every transfer still completes and verifies.
func TestPinnedPageLimitEndToEnd(t *testing.T) {
	cfg := DefaultConfig(policy.OnDemand, true)
	cfg.PinnedPageLimit = 300 // ~1.2 MiB
	p := newPair(t, cfg)
	const n = 512 * 1024 // 128 pages per buffer
	const rounds = 5
	var peak int
	sample := func() {
		if got := p.b.Manager().PinnedPages(); got > peak {
			peak = got
		}
	}
	var tick func()
	tick = func() {
		sample()
		p.eng.After(50*sim.Microsecond, tick)
	}
	p.eng.After(0, tick)

	p.eng.Go("sender", func(pr *sim.Proc) {
		for i := 0; i < rounds; i++ {
			buf, _ := p.a.Malloc(n)
			fill(t, p.a, buf, n, byte(i))
			if err := p.a.Wait(pr, p.a.Isend(buf, n, uint64(i), p.b.Addr())); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			// Keep the buffer (no Free): distinct buffers accumulate in the
			// cache and exceed the pin limit.
		}
	})
	p.eng.Go("receiver", func(pr *sim.Proc) {
		for i := 0; i < rounds; i++ {
			buf, _ := p.b.Malloc(n)
			if err := p.b.Wait(pr, p.b.Irecv(buf, n, uint64(i), ^uint64(0))); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
		}
	})
	p.eng.RunUntil(2 * sim.Second)
	if p.b.Manager().Stats().LRUUnpins == 0 {
		t.Fatal("pinned-page limit never forced an LRU unpin")
	}
	// Peak can exceed the limit only by in-use regions (at most 2 here).
	if peak > 300+2*128 {
		t.Fatalf("peak pinned pages %d far beyond limit", peak)
	}
}

// TestCloseEndpointMidTraffic closes the receiving endpoint while frames
// are in flight: the sender's request must abort via its retransmit limit
// rather than hang, and late frames for the dead endpoint are dropped.
func TestCloseEndpointMidTraffic(t *testing.T) {
	cfg := DefaultConfig(policy.OnDemand, true)
	cfg.RetransmitTimeout = 200 * sim.Microsecond
	p := newPair(t, cfg)
	const n = 8 << 20
	sbuf, _ := p.a.Malloc(n)
	fill(t, p.a, sbuf, n, 1)
	var sendErr error
	sendDone := false
	p.eng.Go("s", func(pr *sim.Proc) {
		req := p.a.Isend(sbuf, n, 1, p.b.Addr())
		sendErr = p.a.Wait(pr, req)
		sendDone = true
	})
	p.eng.Go("r", func(pr *sim.Proc) {
		rbuf, _ := p.b.Malloc(n)
		p.b.Irecv(rbuf, n, 1, ^uint64(0))
		pr.Sleep(2 * sim.Millisecond) // transfer mid-flight
		p.b.Close()
	})
	p.eng.RunUntil(5 * sim.Second)
	if !sendDone {
		t.Fatal("sender hung after peer endpoint closed")
	}
	if sendErr == nil {
		t.Fatal("send succeeded despite the receiver dying mid-transfer")
	}
	if p.a.Manager().PinnedPages() != 0 && p.a.Manager().NumRegions() == 0 {
		t.Fatal("sender leaked pins")
	}
}

// TestMultipleEndpointsPerNode runs independent endpoint pairs sharing
// NICs and RX cores: traffic must not cross-match between endpoints.
func TestMultipleEndpointsPerNode(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	a2, err := p.n0.OpenEndpoint(1, 2, DefaultConfig(policy.OnDemand, true))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.n1.OpenEndpoint(1, 2, DefaultConfig(policy.OnDemand, true))
	if err != nil {
		t.Fatal(err)
	}
	const n = 256 * 1024
	s1, _ := p.a.Malloc(n)
	s2, _ := a2.Malloc(n)
	r1, _ := p.b.Malloc(n)
	r2, _ := b2.Malloc(n)
	w1 := fill(t, p.a, s1, n, 1)
	d2 := make([]byte, n)
	for i := range d2 {
		d2[i] = byte(i)*7 + 99
	}
	if err := a2.AS.Write(s2, d2); err != nil {
		t.Fatal(err)
	}
	// Same match value on both endpoint pairs: must not cross over.
	p.eng.Go("pair1", func(pr *sim.Proc) {
		rr := p.b.Irecv(r1, n, 5, ^uint64(0))
		sr := p.a.Isend(s1, n, 5, p.b.Addr())
		p.a.Wait(pr, sr)
		p.b.Wait(pr, rr)
	})
	p.eng.Go("pair2", func(pr *sim.Proc) {
		rr := b2.Irecv(r2, n, 5, ^uint64(0))
		sr := a2.Isend(s2, n, 5, b2.Addr())
		a2.Wait(pr, sr)
		b2.Wait(pr, rr)
	})
	p.eng.Run()
	g1 := make([]byte, n)
	p.b.AS.Read(r1, g1)
	g2 := make([]byte, n)
	b2.AS.Read(r2, g2)
	for i := range g1 {
		if g1[i] != w1[i] {
			t.Fatal("pair 1 data corrupted (cross-endpoint leak?)")
		}
		if g2[i] != d2[i] {
			t.Fatal("pair 2 data corrupted (cross-endpoint leak?)")
		}
	}
}

// TestUnreachablePeerAborts sends into a black hole (all frames dropped):
// the request must abort after the retransmit limit, not hang.
func TestUnreachablePeerAborts(t *testing.T) {
	cfg := DefaultConfig(policy.OnDemand, true)
	cfg.RetransmitTimeout = 100 * sim.Microsecond
	p := newPair(t, cfg)
	p.fabric.DropFilter = func(fr *ethernet.Frame) bool { return true }
	var errEager, errLarge error
	done := 0
	p.eng.Go("s", func(pr *sim.Proc) {
		sbuf, _ := p.a.Malloc(1 << 20)
		small, _ := p.a.Malloc(1024)
		errEager = p.a.Wait(pr, p.a.Isend(small, 1024, 1, p.b.Addr()))
		done++
		errLarge = p.a.Wait(pr, p.a.Isend(sbuf, 1<<20, 2, p.b.Addr()))
		done++
	})
	p.eng.RunUntil(10 * sim.Second)
	if done != 2 {
		t.Fatal("sends into a black hole hung")
	}
	if errEager == nil || errLarge == nil {
		t.Fatalf("errors = %v / %v, want aborts", errEager, errLarge)
	}
	if p.n0.Stats().Retransmits == 0 {
		t.Fatal("no retransmit attempts recorded")
	}
}
