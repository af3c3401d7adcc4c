package omx

import (
	"fmt"
	"slices"

	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/ioat"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
	"omxsim/internal/vm"
)

// NodeStats aggregates driver-level counters, including the overlap-miss
// counters the paper added for §4.3. A `stat` tag names the field's
// per-cell scenario metric (stats.<name>, summed over nodes; the two
// overlap-miss fields share one).
type NodeStats struct {
	FramesRx            uint64 `stat:"frames_rx"`
	PullRepliesRx       uint64 `stat:"pull_replies"`
	OverlapMissSender   uint64 `stat:"overlap_misses"` // pull request dropped: send region not pinned far enough
	OverlapMissReceiver uint64 `stat:"overlap_misses"` // pull reply dropped: recv region not pinned far enough
	ReRequests          uint64 `stat:"rereqs"`         // pull re-requests issued (all causes)
	Retransmits         uint64 `stat:"retransmits"`    // control-message timeouts (rndv/eager/notify)
	ReqAborts           uint64 `stat:"req_aborts"`     // requests completed with an error
	Crashes             uint64 `stat:"crashes"`        // node crash events
	Restarts            uint64 `stat:"restarts"`       // node restart events
}

// Node is one host: cores, physical memory, a NIC, an I/OAT engine, and the
// Open-MX driver demultiplexing received frames to endpoints.
type Node struct {
	ID      int
	Eng     *sim.Engine
	Machine *cpu.Machine
	Phys    *vm.PhysMem
	NIC     *ethernet.NIC
	IOAT    *ioat.Engine

	// rxCore runs interrupt bottom halves (all RX protocol processing) for
	// rx queue 0; multi-queue nodes spread further queues across cores
	// starting from rxCoreIdx (ConfigureQueues).
	rxCore *cpu.Core
	// rxQueues is the NIC queue count (>= 1).
	rxQueues  int
	endpoints map[int]*Endpoint
	stats     NodeStats

	// kswapd is the background reclaimer started by ConfigureMemory
	// (nil while physical memory is unbounded).
	kswapd *sim.Recurring

	// inflight counts requests issued but not completed; it must drain to
	// zero by the end of a run (the chaos scenarios assert it — a crash
	// may abort requests but must never strand one).
	inflight int
	// crashed marks a node between Crash and Restart.
	crashed bool
	// onAbort, when set, observes every request completing with an error
	// (the chaos stress report counts aborts per interval through it).
	onAbort func(kind ReqKind, err error)

	// pool recycles the node's wire objects and vm pages, its own or
	// shared with the other nodes of its engine shard (see Pool).
	pool *Pool
}

// Pool holds what the nodes of one engine shard recycle among themselves:
// the vm pool of page buffers, spliced page headers and page-table leaves,
// and free lists of the wire objects the nodes are done with. A frame is
// its sender's until NIC.Send, the fabric's in flight, and the receiving
// node's from onFrame on, which empties it onto its pool; a frame lost in
// flight is left to the garbage collector. Pull requests and replies come
// from the sending node's pool and go onto the receiving node's once
// handled. A pool is touched only on its shard (objects cross shards inside
// frames, through the window barrier), so in one-way traffic within a
// shard the sender reuses what the receiver recycled. No list is capped,
// and DropFreeLists empties them at run end.
type Pool struct {
	mem     *vm.Pool
	frames  freeList[ethernet.Frame]
	reqs    freeList[pullReq]
	replies freeList[pullReply]
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{mem: vm.NewPool()} }

// SharePool makes the node recycle its wire objects and vm pages through
// p, which the other nodes of its engine shard share. Set it before the
// node runs.
func (n *Node) SharePool(p *Pool) {
	n.pool = p
	n.Phys.SetPool(p.mem)
}

// freeList is a LIFO of recycled objects.
type freeList[T any] []*T

// get pops the most recently recycled object, or allocates one.
func (l *freeList[T]) get() *T {
	k := len(*l) - 1
	if k < 0 {
		return new(T)
	}
	x := (*l)[k]
	*l = (*l)[:k]
	return x
}

func (l *freeList[T]) put(x *T) { *l = append(*l, x) }

// InFlightRequests reports requests issued but not yet completed.
func (n *Node) InFlightRequests() int { return n.inflight }

// Crashed reports whether the node is between Crash and Restart.
func (n *Node) Crashed() bool { return n.crashed }

// SetAbortHook installs an observer for request aborts (err != nil
// completions).
func (n *Node) SetAbortHook(fn func(kind ReqKind, err error)) { n.onAbort = fn }

// DefaultIntrDelay is every node's IRQ/NAPI pipeline latency: the time
// between a frame landing in the NIC ring and its bottom half being
// runnable (IRQ signalling + NAPI scheduling). It is pure pipeline
// latency — it does not consume core time — and is the dominant term in
// Open-MX's 10-20us rendezvous round trip (paper §3.3 footnote 2); 5us
// places the simulated round trip in that window. The NIC applies it at
// frame delivery (one event per frame instead of two).
const DefaultIntrDelay = 5 * sim.Microsecond

// rxCoreIdx is the core that services NIC interrupts on every node (the
// paper's §4.3 overload scenario binds the application to this same
// core).
const rxCoreIdx = 0

// NewNode creates a host on the fabric.
func NewNode(eng *sim.Engine, fabric *ethernet.Fabric, spec cpu.Spec, id int) *Node {
	n := &Node{
		ID:        id,
		Eng:       eng,
		Machine:   cpu.NewMachine(eng, spec),
		Phys:      vm.NewPhysMem(0),
		NIC:       fabric.AddNICOn(eng, id, 0),
		IOAT:      ioat.New(eng, 0),
		endpoints: make(map[int]*Endpoint),
	}
	n.SharePool(NewPool())
	n.rxCore = n.Machine.Core(rxCoreIdx)
	n.rxQueues = 1
	n.NIC.SetHandler(n.onFrame)
	n.NIC.SetRxDelay(DefaultIntrDelay)
	// Pull replies are deduplicated by one 64-bit word per block (fragSet).
	if frags := (pullBlockSize + n.maxData() - 1) / n.maxData(); frags > 64 {
		panic(fmt.Sprintf("omx: %d fragments per pull block, at most 64", frags))
	}
	return n
}

// DropFreeLists empties the recycled frame, pull-request and pull-reply
// lists of the node's pool, so a finished run holds none of them.
func (n *Node) DropFreeLists() {
	n.pool.frames, n.pool.reqs, n.pool.replies = nil, nil, nil
}

// ConfigureQueues resizes the node's NIC to q tx/rx queues and spreads the
// rx queues' bottom-half processing across cores: queue i's interrupts
// land on core (rxCoreIdx + i) mod cores, like an MSI-X vector per queue.
// Must be called before any traffic flows.
func (n *Node) ConfigureQueues(q int) {
	if q < 1 {
		q = 1
	}
	n.rxQueues = q
	n.NIC.SetQueues(q)
}

// RxCore returns the core servicing NIC bottom halves (queue 0).
func (n *Node) RxCore() *cpu.Core { return n.rxCore }

// RxCoreFor returns the core servicing rx queue q's bottom halves.
func (n *Node) RxCoreFor(q int) *cpu.Core {
	if q <= 0 || n.rxQueues == 1 {
		return n.rxCore
	}
	return n.Machine.Core((rxCoreIdx + q) % n.Machine.NumCores())
}

// RxQueues returns the node's NIC queue count.
func (n *Node) RxQueues() int { return n.rxQueues }

// Stats returns a snapshot of the node's driver counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Endpoint returns the open endpoint with the given id, if any.
func (n *Node) Endpoint(id int) (*Endpoint, bool) {
	ep, ok := n.endpoints[id]
	return ep, ok
}

// Crash takes the node dark, as if it lost power: the NIC stops
// transmitting and discards arrivals, every in-flight request completes
// with a typed ErrPeerDead-wrapped error, and every driver-pinned page is
// released (pins do not survive a crash). Endpoint registrations and
// per-peer sequence state survive — the model's stand-in for stable
// identity across an instance restart — so peers re-establish after
// Restart. Must run as an event on the node's own engine.
func (n *Node) Crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	n.stats.Crashes++
	n.NIC.SetDown(true)
	err := fmt.Errorf("%w: node %d crashed", ErrPeerDead, n.ID)
	// Endpoints by id and processes in endpoint order: each abort wakes a
	// waiter and queues unpin work, so the walk must not follow Go's
	// randomized map order.
	var procs []*Process
	for _, ep := range inOrder(n.endpoints, byEndpointID) {
		ep.emit(trace.NodeCrash, 0, n.ID, 0)
		ep.crashAbort(err)
		if !slices.Contains(procs, ep.proc) {
			procs = append(procs, ep.proc)
		}
	}
	for _, p := range procs {
		p.mgr.ReleaseAll()
	}
}

// Restart brings a crashed node back: the NIC re-registers with the
// fabric and traffic flows again. Regions repin on demand as transfers
// acquire them.
func (n *Node) Restart() {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.stats.Restarts++
	n.NIC.SetDown(false)
	for _, ep := range inOrder(n.endpoints, byEndpointID) {
		ep.emit(trace.NodeRestart, 0, n.ID, 0)
	}
}

// ResizeMemory changes the node's physical-frame budget at runtime (a
// chaos budget-shrink event) and re-derives the default kswapd
// watermarks from the new capacity. No-op on nodes with unbounded
// memory; reports whether the resize applied.
func (n *Node) ResizeMemory(frames int) bool {
	if n.Phys.Capacity() <= 0 || frames <= 0 {
		return false
	}
	n.Phys.Resize(frames)
	n.Phys.SetWatermarks(0, 0)
	return true
}

// maxData is the data payload available per frame after the MXoE header.
func (n *Node) maxData() int { return n.NIC.MTU() - headerBytes }

// send transmits one protocol message in a frame from the node's pool,
// sizing it from its data and steering it onto the flow of its (src
// endpoint, dst endpoint) pair so multi-queue NICs keep each endpoint
// conversation on one lane.
func (n *Node) send(dst int, dataLen int, payload wirePayload) {
	src, dstAddr := payload.addrs()
	fr := n.pool.frames.get()
	fr.Dst, fr.Size, fr.Payload, fr.Flow = dst, headerBytes+dataLen, payload, FlowOf(src, dstAddr)
	n.NIC.Send(fr)
}

// onFrame runs in interrupt context: it only schedules bottom-half work on
// the frame's rx-queue core. All protocol processing happens in the BH at
// BottomHalf priority — which is what starves same-core application
// pinning under flood (paper §4.3). The node owns every frame delivered
// here: once the payload and rx queue are read, the frame is emptied into
// the pool. An empty payload marks a recycled frame.
func (n *Node) onFrame(fr *ethernet.Frame) {
	n.stats.FramesRx++
	if fr.Payload == nil {
		panic("omx: ethernet frame handled after it was recycled")
	}
	p, ok := fr.Payload.(wirePayload)
	if !ok {
		panic(fmt.Sprintf("omx: unknown payload %T", fr.Payload))
	}
	queue := fr.Queue
	n.recycleFrame(fr)
	_, dst := p.addrs()
	ep, epOK := n.endpoints[dst.EP]
	if !epOK {
		return // stale frame for a closed endpoint: dropped
	}
	// The IRQ/NAPI pipeline latency was already applied by the NIC's
	// delivery event (NewNode sets it as the NIC's rx delay), so the
	// bottom half can be queued directly.
	ep.dispatchBH(p, queue)
}

// recycleFrame empties a delivered frame into the pool. Its bound delivery
// callback stays, so the next send of it allocates nothing.
func (n *Node) recycleFrame(fr *ethernet.Frame) {
	if fr.Payload == nil {
		panic("omx: ethernet frame recycled twice")
	}
	fr.Src, fr.Dst, fr.Size, fr.Payload, fr.Flow, fr.Queue = 0, 0, 0, nil, 0, 0
	n.pool.frames.put(fr)
}

// newPullReq takes a pull request from the pool, keeping its blocks array,
// and addresses it.
func (n *Node) newPullReq(src, dst EndpointAddr, seq uint64) *pullReq {
	m := n.pool.reqs.get()
	m.src, m.dst, m.seq, m.blocks, m.live = src, dst, seq, m.blocks[:0], true
	return m
}

// recyclePullReq puts a handled pull request in the pool.
func (n *Node) recyclePullReq(m *pullReq) {
	if !m.live {
		panic("omx: pull request recycled twice")
	}
	m.live, m.ep, m.ss, m.region = false, nil, nil, nil
	n.pool.reqs.put(m)
}

// newPullReply takes a pull reply from the pool, its buf empty but keeping
// its chunk array, and addresses it.
func (n *Node) newPullReply(src, dst EndpointAddr, seq uint64, off int) *pullReply {
	m := n.pool.replies.get()
	m.src, m.dst, m.seq, m.off, m.live = src, dst, seq, off, true
	return m
}

// recyclePullReply releases a received reply's page references and puts
// it in the pool.
func (n *Node) recyclePullReply(m *pullReply) {
	if !m.live {
		panic("omx: pull reply recycled twice")
	}
	m.buf.Release()
	m.live, m.ep, m.rs, m.region = false, nil, nil, nil
	n.pool.replies.put(m)
}

// mustBeLive panics when a pull message is handled after it was recycled.
func mustBeLive(live bool, what string) {
	if !live {
		panic("omx: " + what + " handled after it was recycled")
	}
}
