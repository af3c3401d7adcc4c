// Package mpi implements an MPI-like message-passing layer over Open-MX
// endpoints: blocking and non-blocking point-to-point operations plus the
// collectives the paper's evaluation uses (Table 2: SendRecv, Allgatherv,
// Broadcast, Reduce, Allreduce, Reduce_scatter, Exchange; NPB IS also needs
// Alltoallv). Algorithms follow the classical Open MPI "tuned" component
// shapes: binomial trees for Bcast/Reduce, ring for Allgatherv, pairwise
// for Alltoallv.
//
// Each rank runs as one simulated process; Run spawns them and returns when
// every rank's body has finished.
package mpi

import (
	"fmt"

	"omxsim/internal/omx"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// AnySource matches messages from every rank.
const AnySource = -1

// Match-info encoding: | 16 bits context | 16 bits src rank | 32 bits tag |.
const (
	srcShift = 32
	ctxShift = 48
	tagMask  = 0xffff_ffff
	// ctxPt2pt is user point-to-point traffic; collectives use a rolling
	// context so concurrent collectives never cross-match.
	ctxPt2pt = 1
	ctxColl  = 2
)

func encodeMatch(ctx uint64, src int, tag int) uint64 {
	return ctx<<ctxShift | uint64(uint16(src))<<srcShift | uint64(uint32(tag))
}

func matchMask(src int) uint64 {
	if src == AnySource {
		return ^uint64(0) &^ (uint64(0xffff) << srcShift)
	}
	return ^uint64(0)
}

// World is a set of ranks mapped onto Open-MX endpoints.
type World struct {
	eps []*omx.Endpoint
	// done[r] is set by rank r's body on the engine that owns its node, so
	// within a run only that engine may read it (Done); AllDone reads them
	// all once the engines have stopped.
	done []bool
}

// NewWorld wraps endpoints as ranks 0..len-1.
func NewWorld(eps []*omx.Endpoint) *World {
	return &World{eps: eps, done: make([]bool, len(eps))}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.eps) }

// Endpoint returns rank r's endpoint.
func (w *World) Endpoint(r int) *omx.Endpoint { return w.eps[r] }

// Done reports whether rank r's body has returned. Call it on the engine
// that owns rank r's node: that engine is the only writer of the flag, so
// the answer is the same at every shard count.
func (w *World) Done(r int) bool { return w.done[r] }

// AllDone reports whether every rank's body has returned. Call it after
// the engines have stopped.
func (w *World) AllDone() bool {
	for _, d := range w.done {
		if !d {
			return false
		}
	}
	return true
}

// Run spawns one simulated process per rank executing body, each on the
// engine that owns its endpoint's node (all the same engine in a
// single-shard run). The caller drives the engine(s) and can check
// AllDone.
func (w *World) Run(body func(c *Comm)) {
	for r := range w.eps {
		r := r
		eng := w.eps[r].Node().Eng
		eng.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			c := &Comm{world: w, p: p, ep: w.eps[r], rank: r, size: len(w.eps)}
			body(c)
			w.done[r] = true
		})
	}
}

// Comm is one rank's communicator handle, bound to its simulated process.
type Comm struct {
	world *World
	p     *sim.Proc
	ep    *omx.Endpoint
	rank  int
	size  int
	// collSeq numbers collective operations; every rank executes
	// collectives in the same order, so the sequence stays in lockstep and
	// doubles as the collective tag.
	collSeq uint32
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Proc returns the rank's simulated process.
func (c *Comm) Proc() *sim.Proc { return c.p }

// Endpoint returns the rank's Open-MX endpoint.
func (c *Comm) Endpoint() *omx.Endpoint { return c.ep }

// PeerAddr returns rank r's endpoint address, for layers (like the kv
// workload) that drive raw omx requests from worker processes outside the
// rank body and therefore cannot use the Comm verbs.
func (c *Comm) PeerAddr(r int) omx.EndpointAddr { return c.world.eps[r].Addr() }

// PeerAddrs returns all of rank r's serving-lane addresses: the primary
// endpoint followed by its aux endpoints (cluster assembly's
// EndpointsPerNode fan-out). Multi-endpoint workloads hash across them.
func (c *Comm) PeerAddrs(r int) []omx.EndpointAddr { return c.world.eps[r].AllAddrs() }

// Now returns the current simulated time.
func (c *Comm) Now() sim.Time { return c.p.Now() }

// Malloc allocates an application buffer in the rank's address space.
func (c *Comm) Malloc(n int) vm.Addr {
	a, err := c.ep.Malloc(n)
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d malloc(%d): %v", c.rank, n, err))
	}
	return a
}

// Free releases a buffer (possibly firing MMU notifiers — the free path the
// pinning cache must survive).
func (c *Comm) Free(a vm.Addr) {
	if err := c.ep.Free(a); err != nil {
		panic(fmt.Sprintf("mpi: rank %d free: %v", c.rank, err))
	}
}

// Compute burns d of application CPU time.
func (c *Comm) Compute(d sim.Duration) { c.ep.Compute(c.p, d) }

// Advise hints that [a, a+n) will be used for communication soon
// (eBPF-mm-style user guidance): under pin-ahead the driver pins the
// buffer speculatively, under other policies the declaration cache is
// warmed. It returns immediately; the work happens asynchronously.
func (c *Comm) Advise(a vm.Addr, n int) { c.ep.Advise(a, n) }

// WriteBytes/ReadBytes move data between Go slices and the rank's memory.
func (c *Comm) WriteBytes(a vm.Addr, b []byte) {
	if err := c.ep.AS.Write(a, b); err != nil {
		panic(fmt.Sprintf("mpi: rank %d write: %v", c.rank, err))
	}
}

// WriteBuf writes the next n bytes of w at a, adopting whole pages by
// reference (see vm.AddressSpace.WriteBuf).
func (c *Comm) WriteBuf(a vm.Addr, w *vm.BufWriter, n int) {
	if err := c.ep.AS.WriteBuf(a, w, n); err != nil {
		panic(fmt.Sprintf("mpi: rank %d write: %v", c.rank, err))
	}
}

// ReadBytes copies n bytes at a into a fresh slice.
func (c *Comm) ReadBytes(a vm.Addr, n int) []byte {
	b := make([]byte, n)
	if err := c.ep.AS.Read(a, b); err != nil {
		panic(fmt.Sprintf("mpi: rank %d read: %v", c.rank, err))
	}
	return b
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// Isend starts a non-blocking send of n bytes at addr to rank dst. The
// request carries a non-blocking hint: under omx.Config.AdaptiveOverlap
// (paper §5) it pins synchronously, leaving the CPU to the application's
// own overlap.
func (c *Comm) Isend(addr vm.Addr, n, dst, tag int) *omx.Request {
	return c.ep.IsendVHint([]omx.Segment{{Addr: addr, Len: n}},
		encodeMatch(ctxPt2pt, c.rank, tag), c.world.eps[dst].Addr(), false)
}

// Irecv starts a non-blocking receive of up to n bytes from src (or
// AnySource), with a non-blocking hint like Isend.
func (c *Comm) Irecv(addr vm.Addr, n, src, tag int) *omx.Request {
	s := src
	if src == AnySource {
		s = 0
	}
	return c.ep.IrecvVHint([]omx.Segment{{Addr: addr, Len: n}},
		encodeMatch(ctxPt2pt, s, tag), matchMask(src), false)
}

// Wait blocks until the request completes, panicking on protocol errors
// (MPI's default error handler is abort).
func (c *Comm) Wait(r *omx.Request) Status {
	if err := c.ep.Wait(c.p, r); err != nil {
		panic(fmt.Sprintf("mpi: rank %d: %v", c.rank, err))
	}
	return statusOf(r)
}

// WaitAll waits for every request.
func (c *Comm) WaitAll(rs ...*omx.Request) {
	for _, r := range rs {
		c.Wait(r)
	}
}

func statusOf(r *omx.Request) Status {
	return Status{
		Source: int(uint16(r.RecvMatch >> srcShift)),
		Tag:    int(uint32(r.RecvMatch & tagMask)),
		Len:    r.RecvLen,
	}
}

// Send is the blocking form of Isend (blocking hint set: these are the
// operations overlapped pinning targets, paper §5).
func (c *Comm) Send(addr vm.Addr, n, dst, tag int) {
	c.Wait(c.ep.IsendVHint([]omx.Segment{{Addr: addr, Len: n}},
		encodeMatch(ctxPt2pt, c.rank, tag), c.world.eps[dst].Addr(), true))
}

// Recv is the blocking form of Irecv.
func (c *Comm) Recv(addr vm.Addr, n, src, tag int) Status {
	s := src
	if src == AnySource {
		s = 0
	}
	return c.Wait(c.ep.IrecvVHint([]omx.Segment{{Addr: addr, Len: n}},
		encodeMatch(ctxPt2pt, s, tag), matchMask(src), true))
}

// WaitE blocks until the request completes and returns its error instead
// of panicking — the MPI_ERRORS_RETURN handler. Fault-tolerant workloads
// (the chaos scenarios) use it so peer deaths surface as typed errors.
func (c *Comm) WaitE(r *omx.Request) (Status, error) {
	if err := c.ep.Wait(c.p, r); err != nil {
		return Status{}, err
	}
	return statusOf(r), nil
}

// SendE is Send with errors returned instead of panicking.
func (c *Comm) SendE(addr vm.Addr, n, dst, tag int) error {
	_, err := c.WaitE(c.ep.IsendVHint([]omx.Segment{{Addr: addr, Len: n}},
		encodeMatch(ctxPt2pt, c.rank, tag), c.world.eps[dst].Addr(), true))
	return err
}

// RecvTimeout is Recv with errors returned instead of panicking, and a
// deadline: if the receive has not completed after d, it is cancelled and
// returns omx.ErrTimeout (wrapped in omx.ErrAborted). The bound makes "a
// message that never comes" — the sender crashed before its envelope hit
// the wire — a typed error instead of a hang.
func (c *Comm) RecvTimeout(addr vm.Addr, n, src, tag int, d sim.Duration) (Status, error) {
	s := src
	if src == AnySource {
		s = 0
	}
	r := c.ep.IrecvVHint([]omx.Segment{{Addr: addr, Len: n}},
		encodeMatch(ctxPt2pt, s, tag), matchMask(src), true)
	timer := c.ep.Node().Eng.After(d, func() {
		c.ep.CancelRecv(r, omx.ErrTimeout)
	})
	st, err := c.WaitE(r)
	timer.Cancel() // no-op if already fired
	return st, err
}

// Sendrecv performs a simultaneous send and receive (MPI_Sendrecv).
func (c *Comm) Sendrecv(saddr vm.Addr, sn, dst, stag int, raddr vm.Addr, rn, src, rtag int) Status {
	rr := c.Irecv(raddr, rn, src, rtag)
	sr := c.Isend(saddr, sn, dst, stag)
	c.Wait(sr)
	return c.Wait(rr)
}
