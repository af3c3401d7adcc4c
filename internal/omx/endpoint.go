package omx

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
	"omxsim/internal/vm"
)

// Errors surfaced on requests. ErrPeerDead and ErrTimeout wrap ErrAborted,
// so errors.Is(err, ErrAborted) holds for every liveness abort.
var (
	ErrTruncated  = errors.New("omx: message longer than posted receive")
	ErrAborted    = errors.New("omx: request aborted")
	ErrPinAborted = errors.New("omx: pinning failed, request aborted")
	// ErrPeerDead marks a request aborted because its peer stopped
	// responding for PeerDeadTimeout (crashed node, partitioned link).
	ErrPeerDead = fmt.Errorf("%w: peer dead", ErrAborted)
	// ErrTimeout marks a receive cancelled by a caller-armed deadline
	// (mpi.Comm.RecvTimeout).
	ErrTimeout = fmt.Errorf("%w: receive timed out", ErrAborted)
	// ErrOverload marks an operation rejected by admission control before
	// any protocol traffic: the caller's bounded-inflight budget was full.
	ErrOverload = fmt.Errorf("%w: admission limit reached", ErrAborted)
)

// OverloadError carries the admission-control state at rejection time; it
// unwraps to ErrOverload (and therefore ErrAborted), so callers can match
// coarsely with errors.Is or pull the limits out with errors.As.
type OverloadError struct {
	Limit    int // configured inflight bound
	Inflight int // operations accepted but not yet complete
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (%d inflight, limit %d)", ErrOverload, e.Inflight, e.Limit)
}

// Unwrap links the struct error into the typed-abort lattice.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// ReqKind distinguishes send and receive requests.
type ReqKind int

// Request kinds.
const (
	KindSend ReqKind = iota
	KindRecv
)

// Request is an outstanding Isend/Irecv, completed asynchronously by the
// protocol engine.
type Request struct {
	Kind ReqKind
	// Results, valid after completion.
	Err       error
	RecvLen   int
	RecvMatch uint64
	RecvSrc   EndpointAddr

	ep        *Endpoint
	done      sim.Completion
	match     uint64
	mask      uint64
	postedLen int
	segs      []Segment
	region    *core.Region
	acquired  bool
	cancelled bool
	// overlap records whether this request uses overlapped pinning (per
	// request under AdaptiveOverlap, otherwise fixed by the policy).
	overlap bool
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done.Done() }

// rstate tracks one incoming message from first frame to final cleanup.
type rstate struct {
	key      msgKey
	match    uint64
	total    int
	admitted bool
	matched  *Request // nil until matched
	isLarge  bool

	// got dedups fragments, eager and pull alike (fragSet).
	got fragSet

	// Eager reassembly (kernel intermediate buffer).
	buf      []byte
	received int
	nfrags   int
	fragsGot int // distinct fragments seen (counts, not bytes, so
	// zero-length messages complete)

	// Large-message pull engine.
	blocks       []blockState
	nextBlockOff int // blocks issued so far
	outstanding  int // blocks issued but not fully committed
	lowestHole   int // first block not fully *arrived* (gap detection)
	lastProgress sim.Time
	reqTimer     sim.Event
	reqDelay     sim.Duration // the delay reqTimer was armed with
	onReqTimer   func()       // reRequestTimeout bound to this pull
	missRetry    sim.Event    // local fast retry after receiver-side overlap misses
	notifyTimer  sim.Event
	notifyTries  int
	completed    bool
}

// fragSet records which fragments of a message arrived, one bit each.
// Eager fragments index it by eagerFrag.frag. Pull replies index it by
// block and fragment within the block (pullFrag), one 64-bit word per
// block: fragment k of a block starts k·maxData past the block's offset,
// and NewNode checks that a block has at most 64.
type fragSet []uint64

func newFragSet(frags int) fragSet { return make(fragSet, (frags+63)/64) }

func (s fragSet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s fragSet) add(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s fragSet) remove(i int)   { s[i>>6] &^= 1 << (i & 63) }

// pullFrag is the fragSet index of the pull fragment at byte offset off.
func pullFrag(off, maxData int) int {
	bi := off / pullBlockSize
	return bi<<6 | (off-bi*pullBlockSize)/maxData
}

type blockState struct {
	off, length int
	received    int      // bytes committed (copied into the region)
	accepted    int      // bytes arrived and accepted (pre-copy)
	done        bool     // fully committed
	lastReq     sim.Time // last (re-)request time, for rate limiting
}

// sendState tracks one outgoing message until fully acknowledged.
type sendState struct {
	dst      EndpointAddr
	seq      uint64
	total    int
	req      *Request
	data     []byte // eager payload kept for retransmission
	isLarge  bool
	rtxTimer sim.Event
	// resend retransmits the unacked control message when the timer
	// fires (nil once a pull request acked the rendezvous); onTimer is
	// sendTimeout bound to this send at its first arm (armSendTimer).
	resend  func()
	onTimer func()
	tries   int
	acked   bool // rndv implicitly acked by first pull request
	// quietSince is when the peer last showed signs of life for this
	// message (submission, then every pull request). A send whose peer
	// has been quiet for PeerDeadTimeout aborts with ErrPeerDead.
	quietSince sim.Time
}

type sendKey struct {
	dst EndpointAddr
	seq uint64
}

// Endpoint is an open Open-MX endpoint: the user-space library state (region
// cache, matching queues) plus its driver-side state (region manager,
// per-message protocol state). One endpoint models one application process.
type Endpoint struct {
	node *Node
	proc *Process
	addr EndpointAddr
	cfg  Config

	// Application-process resources. AS and Alloc mirror the process's
	// (kept as fields for the workload-facing API); the region manager
	// and cache are reached through proc — the single source of truth.
	core  *cpu.Core
	AS    *vm.AddressSpace
	Alloc *vm.Allocator

	sendSeq  map[EndpointAddr]uint64
	sends    map[sendKey]*sendState
	recvNext map[EndpointAddr]uint64
	rstates  map[msgKey]*rstate

	// Trace, when non-nil via SetTrace, records protocol + pinning events.
	Trace *trace.Recorder

	posted     []*Request
	unexpected []*rstate
	// activePulls tracks in-progress large receives for cross-message
	// optimistic re-request (Open-MX sequence numbers are per endpoint
	// pair, so any arriving packet is gap evidence for every stalled pull
	// from the same node).
	activePulls map[*rstate]struct{}

	// aux lists additional endpoints attached to this one's rank-role
	// (cluster assembly opens them for multi-endpoint serving); they share
	// the process but have their own addresses and protocol state.
	aux []*Endpoint

	// bh is bottomHalf bound once, so a received frame queues its bottom
	// half without allocating a closure.
	bh func(any)

	closed bool
}

// AttachAux records an additional endpoint serving the same rank-role.
// Cluster assembly calls it; Aux and AllAddrs expose the set to workloads.
func (ep *Endpoint) AttachAux(a *Endpoint) { ep.aux = append(ep.aux, a) }

// Aux returns the endpoints attached to this rank-role beyond the primary.
func (ep *Endpoint) Aux() []*Endpoint { return ep.aux }

// AllAddrs returns the primary address followed by every aux endpoint's,
// in attach order — the per-rank serving lanes clients hash across.
func (ep *Endpoint) AllAddrs() []EndpointAddr {
	addrs := make([]EndpointAddr, 0, 1+len(ep.aux))
	addrs = append(addrs, ep.addr)
	for _, a := range ep.aux {
		addrs = append(addrs, a.addr)
	}
	return addrs
}

// maxRetries bounds control-message retransmissions before a request
// aborts.
const maxRetries = 30

// OpenEndpoint opens endpoint epID on the node in a fresh single-endpoint
// process bound to core appCoreIdx: its own address space, allocator,
// region manager (with MMU notifier attached, paper §3.1) and region
// cache. Use NewProcess + OpenEndpointIn to share one process — and its
// region cache — across several endpoints.
func (n *Node) OpenEndpoint(epID, appCoreIdx int, cfg Config) (*Endpoint, error) {
	p, err := n.NewProcess(epID, appCoreIdx, cfg)
	if err != nil {
		return nil, err
	}
	return n.OpenEndpointIn(p, epID, appCoreIdx)
}

// Close shuts the endpoint down: every in-flight message's timers are
// cancelled (a closed endpoint must not keep talking) and the endpoint
// detaches from its process — when the last endpoint of a process closes,
// the MMU notifiers are detached and all pins are dropped. Outstanding
// local requests never complete — their process is gone; remote peers
// abort via their own liveness timeouts.
func (ep *Endpoint) Close() {
	ep.closed = true
	for _, rs := range ep.rstates {
		rs.completed = true
		rs.reqTimer.Cancel()
		rs.missRetry.Cancel()
		rs.notifyTimer.Cancel()
	}
	ep.rstates = make(map[msgKey]*rstate)
	ep.activePulls = make(map[*rstate]struct{})
	for _, ss := range ep.sends {
		ss.rtxTimer.Cancel()
	}
	ep.sends = make(map[sendKey]*sendState)
	ep.proc.detach(ep)
	delete(ep.node.endpoints, ep.addr.EP)
}

// SetTrace attaches a trace recorder to the endpoint and its driver-side
// region manager.
func (ep *Endpoint) SetTrace(rec *trace.Recorder) {
	ep.Trace = rec
	ep.proc.mgr.Trace = rec
	ep.proc.mgr.TraceNode = ep.node.ID
}

// emit records a protocol trace event when a recorder is attached.
func (ep *Endpoint) emit(k trace.Kind, seq uint64, a, b int) {
	if ep.Trace == nil {
		return
	}
	ep.Trace.Emit(trace.Event{T: ep.node.Eng.Now(), Kind: k, Node: ep.node.ID, Seq: seq, A: a, B: b})
}

// Addr returns the endpoint's fabric address.
func (ep *Endpoint) Addr() EndpointAddr { return ep.addr }

// Node returns the owning node.
func (ep *Endpoint) Node() *Node { return ep.node }

// Core returns the application core the endpoint is bound to.
func (ep *Endpoint) Core() *cpu.Core { return ep.core }

// Process returns the owning process (shared with every endpoint opened
// through the same NewProcess).
func (ep *Endpoint) Process() *Process { return ep.proc }

// Manager exposes the driver-side region manager (for stats and tests).
func (ep *Endpoint) Manager() *core.Manager { return ep.proc.mgr }

// Cache exposes the user-space region cache (for stats and tests).
func (ep *Endpoint) Cache() *core.Cache { return ep.proc.cache }

// Config returns the endpoint configuration.
func (ep *Endpoint) Config() Config { return ep.cfg }

// Compute blocks the process for d of application CPU time on the
// endpoint's core (used by workloads to model computation).
func (ep *Endpoint) Compute(p *sim.Proc, d sim.Duration) {
	ep.core.Exec(p, cpu.User, d)
}

// Malloc allocates an application buffer.
func (ep *Endpoint) Malloc(size int) (vm.Addr, error) { return ep.Alloc.Malloc(size) }

// Free frees an application buffer (possibly firing MMU notifiers).
func (ep *Endpoint) Free(addr vm.Addr) error { return ep.Alloc.Free(addr) }

// Isend starts a send of [addr, addr+length) with the given match
// information. It may be called from process context; the returned request
// completes asynchronously.
func (ep *Endpoint) Isend(addr vm.Addr, length int, match uint64, dst EndpointAddr) *Request {
	return ep.IsendV([]Segment{{Addr: addr, Len: length}}, match, dst)
}

// IsendV is the vectorial form of Isend. It assumes a blocking caller; use
// IsendVHint to mark overlap-aware (non-blocking) requests under
// AdaptiveOverlap.
func (ep *Endpoint) IsendV(segs []Segment, match uint64, dst EndpointAddr) *Request {
	return ep.IsendVHint(segs, match, dst, true)
}

// IsendVHint is IsendV with an explicit blocking hint (paper §5: blocking
// operations benefit most from overlapped pinning).
func (ep *Endpoint) IsendVHint(segs []Segment, match uint64, dst EndpointAddr, blocking bool) *Request {
	req := &Request{Kind: KindSend, ep: ep, segs: segs, overlap: ep.useOverlap(blocking)}
	ep.node.inflight++
	total := 0
	for _, s := range segs {
		total += s.Len
	}
	seq := ep.sendSeq[dst] + 1
	ep.sendSeq[dst] = seq
	ss := &sendState{dst: dst, seq: seq, total: total, req: req, quietSince: ep.node.Eng.Now()}
	ep.sends[sendKey{dst, seq}] = ss
	// The syscall enters the kernel, then the send path runs.
	ep.core.Submit(cpu.Kernel, syscallCost, func() {
		if total <= ep.cfg.EagerThreshold {
			ep.startEager(ss, match)
		} else {
			ss.isLarge = true
			ep.startRendezvous(ss, match)
		}
	})
	return req
}

// Irecv posts a receive of up to length bytes at addr for messages whose
// match info equals match under mask.
func (ep *Endpoint) Irecv(addr vm.Addr, length int, match, mask uint64) *Request {
	return ep.IrecvV([]Segment{{Addr: addr, Len: length}}, match, mask)
}

// IrecvV is the vectorial form of Irecv. For receives large enough to need
// the rendezvous path, the user region is declared (via the cache) now, at
// post time — pinning happens later, per policy, when a message matches.
// It assumes a blocking caller; use IrecvVHint otherwise.
func (ep *Endpoint) IrecvV(segs []Segment, match, mask uint64) *Request {
	return ep.IrecvVHint(segs, match, mask, true)
}

// IrecvVHint is IrecvV with an explicit blocking hint.
func (ep *Endpoint) IrecvVHint(segs []Segment, match, mask uint64, blocking bool) *Request {
	total := 0
	for _, s := range segs {
		total += s.Len
	}
	req := &Request{Kind: KindRecv, ep: ep, match: match, mask: mask, postedLen: total,
		segs: segs, overlap: ep.useOverlap(blocking)}
	ep.node.inflight++
	ep.core.Submit(cpu.Kernel, syscallCost, func() {
		if total > ep.cfg.EagerThreshold {
			ep.proc.cache.GetAsyncOn(ep.core, segs, func(r *core.Region, err error) {
				if err != nil {
					ep.complete(req, fmt.Errorf("omx: declare: %w", err))
					return
				}
				req.region = r
				ep.postRecv(req)
			})
			return
		}
		ep.postRecv(req)
	})
	return req
}

// useOverlap asks the policy backend whether a request overlaps its
// pinning with the transfer (per request: the application's blocking
// hint plus the endpoint's AdaptiveOverlap configuration, paper §5).
func (ep *Endpoint) useOverlap(blocking bool) bool {
	return ep.cfg.Policy.OverlapTransfer(blocking, ep.cfg.AdaptiveOverlap)
}

// Advise hints that segs will be used for communication soon — the
// eBPF-mm-style user-guided signal. The segments are declared through
// the region cache (one syscall, charged like any declare) and, under
// backends that pin at declare time (pin-ahead, permanent), pinning
// starts immediately: by the time a transfer acquires the region the
// pin is usually complete. Under other backends the hint still warms
// the declaration cache; it never holds a reference, so eviction and
// invalidation proceed normally.
func (ep *Endpoint) Advise(addr vm.Addr, length int) {
	ep.AdviseV([]Segment{{Addr: addr, Len: length}})
}

// AdviseV is the vectorial form of Advise.
func (ep *Endpoint) AdviseV(segs []Segment) {
	if len(segs) == 0 {
		return
	}
	ep.core.Submit(cpu.Kernel, syscallCost, func() {
		ep.proc.cache.GetAsyncOn(ep.core, segs, func(r *core.Region, err error) {
			if err != nil {
				return // a bad hint is not an error; the transfer will fail loudly
			}
			// Drop the reference immediately: the cache keeps the
			// declaration (and the declare-time pin it triggered) warm.
			ep.proc.cache.PutOn(ep.core, r)
		})
	})
}

// postRecv runs the MX matching rule: first try the unexpected queue in
// arrival order, else append to the posted queue.
func (ep *Endpoint) postRecv(req *Request) {
	if req.done.Done() {
		return // cancelled while the post syscall/declare was in flight
	}
	for i, rs := range ep.unexpected {
		if matches(req.match, req.mask, rs.match) {
			ep.unexpected = append(ep.unexpected[:i], ep.unexpected[i+1:]...)
			ep.bind(rs, req)
			return
		}
	}
	ep.posted = append(ep.posted, req)
}

// Wait blocks the process until the request completes, returning its error.
func (ep *Endpoint) Wait(p *sim.Proc, r *Request) error {
	r.done.Wait(p)
	return r.Err
}

// WaitAll waits for every request and returns the first error.
func (ep *Endpoint) WaitAll(p *sim.Proc, rs ...*Request) error {
	var first error
	for _, r := range rs {
		if err := ep.Wait(p, r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// complete finishes a request exactly once.
func (ep *Endpoint) complete(req *Request, err error) {
	if req.done.Done() {
		return
	}
	req.Err = err
	if req.acquired {
		ep.proc.mgr.Release(req.region)
		req.acquired = false
	}
	if req.region != nil {
		ep.proc.cache.PutOn(ep.core, req.region)
		req.region = nil
	}
	ep.node.inflight--
	if err != nil {
		ep.node.stats.ReqAborts++
		if ep.node.onAbort != nil {
			ep.node.onAbort(req.Kind, err)
		}
	}
	req.done.Complete(ep.node.Eng, nil)
}

// CancelRecv aborts a posted receive with the given error (typically
// ErrTimeout from a caller-armed deadline). An unmatched receive leaves
// the posted queue; a matched one tears down its message state. Safe to
// call after completion (reports false). Cancelling a matched receive
// whose sender is still alive loses that message — the caller has decided
// it is not coming.
func (ep *Endpoint) CancelRecv(req *Request, err error) bool {
	if req.Kind != KindRecv || req.done.Done() {
		return false
	}
	for i, r := range ep.posted {
		if r == req {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			ep.complete(req, err)
			return true
		}
	}
	for _, rs := range ep.rstates {
		if rs.matched != req || rs.completed {
			continue
		}
		if rs.isLarge {
			ep.finishPull(rs, err)
		} else {
			rs.completed = true
			delete(ep.rstates, rs.key)
			ep.complete(req, err)
		}
		return true
	}
	// Not yet queued (post syscall or declare still in flight): complete
	// now; postRecv skips completed requests.
	ep.complete(req, err)
	return true
}

// inOrder returns the values of m sorted by compare. Walks that complete
// requests, queue core work or put frames on the wire go in such an order,
// never in Go's randomized map order.
func inOrder[K comparable, V any](m map[K]V, compare func(a, b V) int) []V {
	vs := make([]V, 0, len(m))
	for _, v := range m {
		vs = append(vs, v)
	}
	slices.SortFunc(vs, compare)
	return vs
}

// bySendKey and byMsgKey order protocol state by peer address, then
// sequence number; byEndpointID orders a node's endpoints.
func bySendKey(a, b *sendState) int   { return comparePeerSeq(a.dst, a.seq, b.dst, b.seq) }
func byMsgKey(a, b *rstate) int       { return comparePeerSeq(a.key.src, a.key.seq, b.key.src, b.key.seq) }
func byEndpointID(a, b *Endpoint) int { return cmp.Compare(a.addr.EP, b.addr.EP) }

func comparePeerSeq(a EndpointAddr, aSeq uint64, b EndpointAddr, bSeq uint64) int {
	return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.EP, b.EP), cmp.Compare(aSeq, bSeq))
}

// crashAbort tears down every in-flight exchange when the owning node
// crashes: sends and matched receives complete with the given typed error
// and no wire traffic (the NIC is dark). Posted-but-unmatched receives
// stay live — peers may re-establish after a restart — and the per-peer
// sequence state survives so post-restart admission stays in order.
func (ep *Endpoint) crashAbort(err error) {
	for _, ss := range inOrder(ep.sends, bySendKey) {
		ep.abortSend(ss, err)
	}
	for _, rs := range inOrder(ep.rstates, byMsgKey) {
		rs.reqTimer.Cancel()
		rs.missRetry.Cancel()
		rs.notifyTimer.Cancel()
		if rs.completed {
			delete(ep.rstates, rs.key)
			continue
		}
		if rs.matched != nil {
			rs.completed = true
			delete(ep.activePulls, rs)
			ep.complete(rs.matched, err)
		} else {
			for i, u := range ep.unexpected {
				if u == rs {
					ep.unexpected = append(ep.unexpected[:i], ep.unexpected[i+1:]...)
					break
				}
			}
		}
		delete(ep.rstates, rs.key)
	}
}

// dispatchBH schedules bottom-half processing for one received frame on
// the core servicing the frame's rx queue (queue 0 is the node's classic
// RX core; multi-queue NICs spread flows across cores).
func (ep *Endpoint) dispatchBH(payload any, queue int) {
	cost := bhFragCost
	if m, ok := payload.(*eagerFrag); ok {
		// The copy into the kernel intermediate buffer happens in the
		// bottom half and is unconditional (no pinning on the eager path).
		cost += ep.core.Spec().CopyCost(len(m.data))
	}
	ep.node.RxCoreFor(queue).SubmitArg(cpu.BottomHalf, cost, ep.bh, payload)
}

// bottomHalf runs the protocol handler for one received frame's payload.
func (ep *Endpoint) bottomHalf(payload any) {
	switch m := payload.(type) {
	case *eagerFrag:
		ep.handleEagerFrag(m)
	case *eagerAck:
		ep.handleEagerAck(m)
	case *rndvMsg:
		ep.handleRndv(m)
	case *pullReq:
		ep.handlePullReq(m)
	case *pullReply:
		ep.handlePullReply(m)
	case *notifyMsg:
		ep.handleNotify(m)
	case *notifyAck:
		ep.handleNotifyAck(m)
	case *abortMsg:
		ep.handleAbort(m)
	}
}

// handleAbort terminates an in-progress receive whose sender gave up.
func (ep *Endpoint) handleAbort(m *abortMsg) {
	rs, ok := ep.rstates[msgKey{m.src, m.seq}]
	if !ok || rs.completed {
		return
	}
	if rs.matched != nil {
		ep.finishPull(rs, fmt.Errorf("%w: sender aborted", ErrAborted))
		return
	}
	// Unmatched (unexpected queue): drop the envelope so no future receive
	// matches a dead message.
	for i, u := range ep.unexpected {
		if u == rs {
			ep.unexpected = append(ep.unexpected[:i], ep.unexpected[i+1:]...)
			break
		}
	}
	delete(ep.rstates, rs.key)
}

// abortRegionUsers aborts every request still using a region whose pins
// were ripped out by an MMU-notifier invalidation (application freed the
// buffer mid-communication).
func (ep *Endpoint) abortRegionUsers(r *core.Region) {
	for _, ss := range inOrder(ep.sends, bySendKey) {
		if ss.req.region != nil && ss.req.region.Base() == r && !ss.req.done.Done() {
			ep.node.send(ss.dst.Node, 0, &abortMsg{src: ep.addr, dst: ss.dst, seq: ss.seq})
			ep.abortSend(ss, fmt.Errorf("%w: buffer invalidated during send", ErrPinAborted))
		}
	}
	for _, rs := range inOrder(ep.rstates, byMsgKey) {
		if rs.matched != nil && !rs.completed &&
			rs.matched.region != nil && rs.matched.region.Base() == r {
			ep.finishPull(rs, fmt.Errorf("%w: buffer invalidated during receive", ErrPinAborted))
		}
	}
}

// doneBelow reports the contiguous-finished watermark toward dst: every
// sequence number at or below it has left ep.sends (delivered or
// aborted). Envelope messages carry it so receivers never wait forever on
// admission gaps left by aborted sends.
func (ep *Endpoint) doneBelow(dst EndpointAddr) uint64 {
	low := ep.sendSeq[dst]
	for k := range ep.sends {
		if k.dst == dst && k.seq <= low {
			low = k.seq - 1
		}
	}
	return low
}

// advanceDone applies a sender's finished watermark: sequence numbers at
// or below it will never be (re)sent, so in-order admission may advance
// past them. Fully arrived eager messages below the watermark are
// admitted as they stand; half-arrived ones (the sender gave up — peer
// death, crash) are dropped.
func (ep *Endpoint) advanceDone(src EndpointAddr, doneBelow uint64) {
	if doneBelow <= ep.recvNext[src] {
		return
	}
	for ep.recvNext[src] < doneBelow {
		next := ep.recvNext[src] + 1
		if rs, ok := ep.rstates[msgKey{src, next}]; ok && !rs.admitted {
			if !rs.isLarge && rs.fragsGot == rs.nfrags {
				rs.admitted = true
				ep.recvNext[src] = next
				ep.matchOrQueue(rs)
				continue
			}
			delete(ep.rstates, rs.key)
		}
		ep.recvNext[src] = next
	}
	ep.admit(src)
}

// admit advances per-source envelope admission in sequence order, so MPI
// message ordering holds even when frames arrive out of order.
func (ep *Endpoint) admit(src EndpointAddr) {
	for {
		next := ep.recvNext[src] + 1
		rs, ok := ep.rstates[msgKey{src, next}]
		if !ok || rs.admitted {
			return
		}
		rs.admitted = true
		ep.recvNext[src] = next
		ep.matchOrQueue(rs)
	}
}

// matchOrQueue matches a newly admitted envelope against posted receives in
// post order, or queues it as unexpected.
func (ep *Endpoint) matchOrQueue(rs *rstate) {
	for i, req := range ep.posted {
		if matches(req.match, req.mask, rs.match) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			ep.bind(rs, req)
			return
		}
	}
	ep.unexpected = append(ep.unexpected, rs)
}

// bind attaches a matched request to a message and starts delivery.
func (ep *Endpoint) bind(rs *rstate, req *Request) {
	rs.matched = req
	req.RecvMatch = rs.match
	req.RecvSrc = rs.key.src
	if rs.total > req.postedLen {
		// Truncation: consume and discard the message, erroring the request.
		req.RecvLen = req.postedLen
	} else {
		req.RecvLen = rs.total
	}
	if rs.isLarge {
		ep.startPull(rs, req)
		return
	}
	ep.maybeDeliverEager(rs)
}
