package omx

import (
	"bytes"
	"testing"

	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// TestReallocPingPongRecyclesSenderPages runs a lossless pingpong that frees
// and re-mallocs both buffers every iteration. Pull replies lend the
// sender's pages to the receiver; once the receiver has landed (and
// released) every fragment and freed its own buffer, freeing the send
// buffer must drop the last reference to each of its pages, so all of them
// return to the sender's free list. A consume path that forgets to release
// its Buf keeps some page counted and fails the exact count.
func TestReallocPingPongRecyclesSenderPages(t *testing.T) {
	const (
		n     = 256 << 10 // rendezvous-sized, and mmap'd so Free unmaps
		pages = n / vm.PageSize
		iters = 4
	)
	for _, ioat := range []bool{false, true} {
		cfg := DefaultConfig(policy.Overlapped, true)
		cfg.UseIOAT = ioat
		p := newPair(t, cfg)
		for it := 0; it < iters; it++ {
			malloc := func(ep *Endpoint) vm.Addr {
				a, err := ep.Malloc(n)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			sa, ra, sb, rb := malloc(p.a), malloc(p.a), malloc(p.b), malloc(p.b)
			wantAB := fill(t, p.a, sa, n, byte(3+it))
			wantBA := fill(t, p.b, sb, n, byte(5+it))
			p.eng.Go("a", func(pr *sim.Proc) {
				if err := p.a.Wait(pr, p.a.Isend(sa, n, 1, p.b.Addr())); err != nil {
					t.Errorf("a send: %v", err)
				}
				if err := p.a.Wait(pr, p.a.Irecv(ra, n, 2, ^uint64(0))); err != nil {
					t.Errorf("a recv: %v", err)
				}
			})
			p.eng.Go("b", func(pr *sim.Proc) {
				if err := p.b.Wait(pr, p.b.Irecv(rb, n, 1, ^uint64(0))); err != nil {
					t.Errorf("b recv: %v", err)
				}
				if err := p.b.Wait(pr, p.b.Isend(sb, n, 2, p.a.Addr())); err != nil {
					t.Errorf("b send: %v", err)
				}
			})
			p.eng.Run()
			for _, c := range []struct {
				ep   *Endpoint
				addr vm.Addr
				want []byte
			}{{p.b, rb, wantAB}, {p.a, ra, wantBA}} {
				got := make([]byte, n)
				if err := c.ep.AS.Read(c.addr, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, c.want) {
					t.Fatalf("ioat=%v iter %d: payload corrupted", ioat, it)
				}
			}
			if err := p.a.Free(ra); err != nil {
				t.Fatal(err)
			}
			if err := p.b.Free(rb); err != nil {
				t.Fatal(err)
			}
			for _, s := range []struct {
				ep   *Endpoint
				addr vm.Addr
			}{{p.a, sa}, {p.b, sb}} {
				before := s.ep.node.Phys.RecycledPages()
				if err := s.ep.Free(s.addr); err != nil {
					t.Fatal(err)
				}
				if got := s.ep.node.Phys.RecycledPages() - before; got != pages {
					t.Fatalf("ioat=%v iter %d: freeing node %d's send buffer recycled %d pages, want %d",
						ioat, it, s.ep.node.ID, got, pages)
				}
			}
		}
		for _, nd := range []*Node{p.n0, p.n1} {
			if st := nd.Stats(); st.OverlapMissReceiver+st.OverlapMissSender+st.ReRequests != 0 {
				t.Fatalf("ioat=%v: run was not lossless: %+v", ioat, st)
			}
		}
	}
}
