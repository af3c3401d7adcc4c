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
// overlap-miss fields share one); untagged fields are not reported.
type NodeStats struct {
	FramesRx            uint64 `stat:"frames_rx"`
	FramesTx            uint64
	EagerFragsRx        uint64
	PullRepliesRx       uint64 `stat:"pull_replies"`
	OverlapMissSender   uint64 `stat:"overlap_misses"` // pull request dropped: send region not pinned far enough
	OverlapMissReceiver uint64 `stat:"overlap_misses"` // pull reply dropped: recv region not pinned far enough
	ReRequests          uint64 `stat:"rereqs"`         // pull re-requests issued (all causes)
	OptimisticReReqs    uint64 // gap-driven re-requests (higher offsets seen)
	Retransmits         uint64 `stat:"retransmits"` // control-message timeouts (rndv/eager/notify)
	DupFrags            uint64 // duplicate data fragments discarded
	ReqAborts           uint64 `stat:"req_aborts"` // requests completed with an error
	Crashes             uint64 `stat:"crashes"`    // node crash events
	Restarts            uint64 `stat:"restarts"`   // node restart events
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
}

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
	n.rxCore = n.Machine.Core(rxCoreIdx)
	n.rxQueues = 1
	n.NIC.SetHandler(n.onFrame)
	n.NIC.SetRxDelay(DefaultIntrDelay)
	return n
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

// send transmits one protocol message, sizing the frame from its data and
// steering it onto the flow of its (src endpoint, dst endpoint) pair so
// multi-queue NICs keep each endpoint conversation on one lane.
func (n *Node) send(dst int, dataLen int, payload wirePayload) {
	n.stats.FramesTx++
	src, dstAddr := payload.addrs()
	n.NIC.Send(&ethernet.Frame{
		Dst:     dst,
		Size:    headerBytes + dataLen,
		Payload: payload,
		Flow:    FlowOf(src, dstAddr),
	})
}

// onFrame runs in interrupt context: it only schedules bottom-half work on
// the frame's rx-queue core. All protocol processing happens in the BH at
// BottomHalf priority — which is what starves same-core application
// pinning under flood (paper §4.3).
func (n *Node) onFrame(fr *ethernet.Frame) {
	n.stats.FramesRx++
	p, ok := fr.Payload.(wirePayload)
	if !ok {
		panic(fmt.Sprintf("omx: unknown payload %T", fr.Payload))
	}
	_, dst := p.addrs()
	ep, epOK := n.endpoints[dst.EP]
	if !epOK {
		return // stale frame for a closed endpoint: dropped
	}
	// The IRQ/NAPI pipeline latency was already applied by the NIC's
	// delivery event (NewNode sets it as the NIC's rx delay), so the
	// bottom half can be queued directly.
	ep.dispatchBH(fr.Payload, fr.Queue)
}
