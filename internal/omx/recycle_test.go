package omx

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// TestAllocsRendezvousPerMessage: once two nodes' regions are cached and
// their free lists warm, a rendezvous allocates the same small number of
// objects at 256 KiB (8 pull blocks, 32 fragments) as at 4 MiB (128
// blocks, 512 fragments): nothing on the pull path allocates per
// fragment or per window. Each run is a ping and a pong, so each node
// receives the frames, requests and replies it sends next — the steady
// state of a ping-pong.
//
// It runs on the default 1.25 GB/s link, where frames arrive faster than
// the bottom half's 1.15 GB/s copy and queue up on the rx core, and on a
// 1.0 GB/s link, where they never queue. A core's work ring keeps the
// array a backlog grew until the run ends, so the 4 MiB message's backlog
// costs nothing once the first message has grown it.
func TestAllocsRendezvousPerMessage(t *testing.T) {
	for _, bps := range []float64{ethernet.DefaultLinkConfig().BytesPerSec, 1.0e9} {
		var perMsg []float64
		for _, n := range []int{256 << 10, 4 << 20} {
			eng := sim.NewEngine(11)
			link := ethernet.DefaultLinkConfig()
			link.BytesPerSec = bps
			fabric := ethernet.NewFabric(eng, link)
			n0 := NewNode(eng, fabric, cpu.XeonE5460, 0)
			n1 := NewNode(eng, fabric, cpu.XeonE5460, 1)
			a, _ := n0.OpenEndpoint(0, 1, DefaultConfig(policy.Overlapped, true))
			b, _ := n1.OpenEndpoint(0, 1, DefaultConfig(policy.Overlapped, true))
			p := &pair{eng: eng, fabric: fabric, n0: n0, n1: n1, a: a, b: b}
			abuf, _ := p.a.Malloc(n)
			bbuf, _ := p.b.Malloc(n)
			want := fill(t, p.a, abuf, n, 5)
			one := func(from, to *Endpoint, sbuf, rbuf vm.Addr) {
				rr := to.Irecv(rbuf, n, 1, ^uint64(0))
				sr := from.Isend(sbuf, n, 1, to.Addr())
				p.eng.Run()
				if !sr.Done() || !rr.Done() || sr.Err != nil || rr.Err != nil {
					t.Fatalf("%d-byte rendezvous: done %v/%v, errors %v/%v",
						n, sr.Done(), rr.Done(), sr.Err, rr.Err)
				}
			}
			pingPong := func() {
				one(p.a, p.b, abuf, bbuf)
				one(p.b, p.a, bbuf, abuf)
			}
			pingPong() // declare, pin and cache both regions; fill the free lists
			pingPong()
			allocs := testing.AllocsPerRun(20, pingPong) / 2
			got := make([]byte, n)
			if err := p.a.AS.Read(abuf, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%d-byte ping-pong delivered the wrong bytes", n)
			}
			perMsg = append(perMsg, allocs)
		}
		if perMsg[0] != perMsg[1] {
			t.Fatalf("on a %.2f GB/s link, a rendezvous allocates %.1f objects at 256 KiB but %.1f at 4 MiB",
				bps/1e9, perMsg[0], perMsg[1])
		}
		if perMsg[0] > rendezvousAllocs {
			t.Fatalf("on a %.2f GB/s link, a rendezvous allocates %.1f objects, over its budget of %d",
				bps/1e9, perMsg[0], rendezvousAllocs)
		}
	}
}

// TestAllocsOneWayStreamPerMessage: two nodes of one engine shard share
// its pool, so in one-way traffic the sender takes the frames, pull
// requests and pull replies the receiver recycled instead of making new
// ones while the receiver hoards. Once both regions are cached and the
// pool is warm, each message leaves the pool holding exactly what it held
// before (an object made during the message would come back as one more),
// and a message allocates the same objects at 256 KiB as at 4 MiB, within
// the rendezvous budget.
func TestAllocsOneWayStreamPerMessage(t *testing.T) {
	var perMsg []float64
	for _, n := range []int{256 << 10, 4 << 20} {
		eng := sim.NewEngine(11)
		fabric := ethernet.NewFabric(eng, ethernet.DefaultLinkConfig())
		pool := NewPool()
		n0 := NewNode(eng, fabric, cpu.XeonE5460, 0)
		n1 := NewNode(eng, fabric, cpu.XeonE5460, 1)
		n0.SharePool(pool)
		n1.SharePool(pool)
		a, _ := n0.OpenEndpoint(0, 1, DefaultConfig(policy.Overlapped, true))
		b, _ := n1.OpenEndpoint(0, 1, DefaultConfig(policy.Overlapped, true))
		sbuf, _ := a.Malloc(n)
		rbuf, _ := b.Malloc(n)
		want := fill(t, a, sbuf, n, 9)
		held := func() [3]int { return [3]int{len(pool.frames), len(pool.reqs), len(pool.replies)} }
		var before [3]int
		one := func() {
			before = held()
			rr := b.Irecv(rbuf, n, 1, ^uint64(0))
			sr := a.Isend(sbuf, n, 1, b.Addr())
			eng.Run()
			if !sr.Done() || !rr.Done() || sr.Err != nil || rr.Err != nil {
				t.Fatalf("%d-byte message: done %v/%v, errors %v/%v", n, sr.Done(), rr.Done(), sr.Err, rr.Err)
			}
		}
		one() // declare, pin and cache both regions; fill the pool
		one()
		one()
		if got := held(); got != before {
			t.Fatalf("%d-byte message: the pool held %v frames, requests and replies before and %v after", n, before, got)
		}
		perMsg = append(perMsg, testing.AllocsPerRun(20, one))
		got := make([]byte, n)
		if err := b.AS.Read(rbuf, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte stream delivered the wrong bytes", n)
		}
	}
	if perMsg[0] != perMsg[1] {
		t.Fatalf("a one-way message allocates %.1f objects at 256 KiB but %.1f at 4 MiB", perMsg[0], perMsg[1])
	}
	if perMsg[0] > rendezvousAllocs {
		t.Fatalf("a one-way message allocates %.1f objects, over the rendezvous budget of %d", perMsg[0], rendezvousAllocs)
	}
}

// rendezvousAllocs bounds what one cached rendezvous allocates: its two
// requests, the send and receive state, the block table and fragment set,
// the control messages (rendezvous, notify, notify ack) and the closures
// of the per-message steps — 33 objects with Go 1.24, plus 5%.
const rendezvousAllocs = 35

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want %q", msg, want)
		}
	}()
	fn()
}

// TestRecycledWireObjectsFailLoudly: recycling a frame, pull request or
// pull reply twice panics with a message naming the object, and so does
// handling one after it was recycled.
func TestRecycledWireObjectsFailLoudly(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.Overlapped, true))
	n := p.n1
	t.Run("frame", func(t *testing.T) {
		fr := n.pool.frames.get()
		fr.Dst, fr.Payload = 1, &notifyAck{src: p.a.addr, dst: p.b.addr, seq: 99}
		n.onFrame(fr) // the node owns and recycles it
		mustPanic(t, "ethernet frame recycled twice", func() { n.recycleFrame(fr) })
		mustPanic(t, "ethernet frame handled after it was recycled", func() { n.onFrame(fr) })
	})
	t.Run("pull request", func(t *testing.T) {
		m := n.newPullReq(p.a.addr, p.b.addr, 99)
		n.recyclePullReq(m)
		mustPanic(t, "pull request recycled twice", func() { n.recyclePullReq(m) })
		mustPanic(t, "pull request handled after it was recycled", func() { p.b.handlePullReq(m) })
		mustPanic(t, "pull request handled after it was recycled", func() { p.b.servePull(m) })
	})
	t.Run("pull reply", func(t *testing.T) {
		m := n.newPullReply(p.a.addr, p.b.addr, 99, 0)
		n.recyclePullReply(m)
		mustPanic(t, "pull reply recycled twice", func() { n.recyclePullReply(m) })
		mustPanic(t, "pull reply handled after it was recycled", func() { p.b.handlePullReply(m) })
		mustPanic(t, "pull reply handled after it was recycled", func() { p.b.commitReply(m) })
	})
	t.Run("delivered after recycling", func(t *testing.T) {
		// A recycled request that reaches a bottom half through the wire
		// is caught there too.
		m := p.a.node.newPullReq(p.a.addr, p.b.addr, 99)
		p.a.node.recyclePullReq(m)
		fr := n.pool.frames.get()
		fr.Dst, fr.Payload = 1, m
		mustPanic(t, "pull request handled after it was recycled", func() {
			n.onFrame(fr)
			p.eng.Run()
		})
	})
}

// freeListWatch checks, between engine steps, that none of a node's
// free lists holds an object twice.
type freeListWatch struct {
	n       *Node
	frames  listWatch[ethernet.Frame]
	reqs    listWatch[pullReq]
	replies listWatch[pullReply]
}

// check describes an object a list holds twice, or returns "".
func (w *freeListWatch) check() string {
	if x := w.frames.check(w.n.pool.frames); x != nil {
		return fmt.Sprintf("node %d lists frame %p twice", w.n.ID, x)
	}
	if x := w.reqs.check(w.n.pool.reqs); x != nil {
		return fmt.Sprintf("node %d lists pull request %p twice", w.n.ID, x)
	}
	if x := w.replies.check(w.n.pool.replies); x != nil {
		return fmt.Sprintf("node %d lists pull reply %p twice", w.n.ID, x)
	}
	return ""
}

// listWatch follows one free list: the entries it held at the last check
// and the set of them.
type listWatch[T any] struct {
	prev []*T
	on   map[*T]bool
}

// check returns an object cur holds twice, or nil. A free list is a
// stack, so between checks only its top changes: entries below the first
// one that differs from the last check were checked then.
func (w *listWatch[T]) check(cur []*T) *T {
	if w.on == nil {
		w.on = make(map[*T]bool)
	}
	i := 0
	for i < len(cur) && i < len(w.prev) && cur[i] == w.prev[i] {
		i++
	}
	for _, x := range w.prev[i:] {
		delete(w.on, x)
	}
	for _, x := range cur[i:] {
		if w.on[x] {
			return x
		}
		w.on[x] = true
	}
	w.prev = append(w.prev[:i], cur[i:]...)
	return nil
}
