// Package ethernet simulates the generic Ethernet layer Open-MX runs on: a
// full-duplex point-to-point fabric of NICs and links with wire
// serialization, propagation delay, per-frame overheads, MTU enforcement,
// optional loss injection, and RX interrupts.
//
// The model deliberately stops at the abstraction Open-MX sees: frames go
// in, frames come out later, receives happen in interrupt context (the
// driver schedules bottom-half work from the RX callback). Fragmentation,
// retransmission, and message semantics live in the omx protocol layer.
package ethernet

import (
	"fmt"
	"math/rand"

	"omxsim/internal/sim"
)

// Frame wire-format constants.
const (
	// MTU is the maximum payload per frame. 10G HPC deployments use jumbo
	// frames; the Myri-10G NICs in the paper's testbed run MTU 9000.
	DefaultMTU = 9000
	// WireOverhead is the non-payload cost per frame on the wire: preamble
	// (8) + Ethernet header (14) + FCS (4) + inter-frame gap (12).
	WireOverhead = 38
)

// TxOverhead is every NIC's host-side per-frame send cost (descriptor
// ring, DMA setup). It is charged on the tx lane's schedule, so it
// serializes with the frames queued there.
const TxOverhead = 200 * sim.Nanosecond

// Frame is one Ethernet frame. Payload is an opaque protocol message; Size
// is the payload size in bytes as serialized on the wire (protocol headers
// included), which determines transmission time.
type Frame struct {
	Src, Dst int // node IDs
	Size     int // payload bytes, <= MTU
	Payload  any
	// Flow identifies the transport flow for queue steering: frames of one
	// flow always serialize on the same tx queue and land on the same rx
	// queue (like an RSS hash of the 5-tuple). Zero is the default flow;
	// single-queue NICs ignore it.
	Flow uint64
	// Queue is the destination rx queue, filled in by Send from the
	// seeded steering function and the destination NIC's queue count.
	Queue int

	// to is the NIC the frame is in flight to, and deliver the callback
	// that hands it over (to.Deliver(fr)). Send binds deliver the first
	// time it routes the frame object, so a frame that is recycled and
	// sent again schedules its delivery without allocating.
	to      *NIC
	deliver func()
}

// LinkConfig describes one direction-pair of cabling.
type LinkConfig struct {
	// BytesPerSec is the raw signalling rate. 10 Gb/s = 1.25e9.
	BytesPerSec float64
	// PropDelay is one-way propagation + PHY latency.
	PropDelay sim.Duration
	// DropProb is an i.i.d. frame-loss probability (deterministic via the
	// engine RNG). Usually 0; tests and loss experiments raise it.
	DropProb float64
}

// DefaultLinkConfig is a 10G link with sub-microsecond PHY latency.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{BytesPerSec: 1.25e9, PropDelay: 500 * sim.Nanosecond}
}

// Degrade describes a temporary impairment of one NIC's attachment to the
// fabric. Zero-valued fields leave that aspect of the link untouched; a
// DropProb of 1 is a full partition window.
type Degrade struct {
	// ExtraLatency is added once per traversal on each degraded side:
	// egress frames from a degraded NIC and ingress frames to a degraded
	// NIC each pay it (propagation only — it never occupies the wire).
	ExtraLatency sim.Duration
	// BandwidthFactor scales the signalling rate of egress links, in
	// (0, 1]. Zero means no throttle.
	BandwidthFactor float64
	// DropProb is an additional i.i.d. loss probability applied per
	// direction: egress drops draw from the NIC's tx RNG, ingress drops
	// from a separate rx RNG, so loss patterns stay independent of how
	// traffic from other nodes interleaves.
	DropProb float64
}

// NIC is a network interface. RX delivery invokes the registered handler in
// "interrupt context" — handlers are expected to do minimal work and
// schedule bottom-half processing on a core.
type NIC struct {
	eng    *sim.Engine
	nodeID int
	mtu    int
	// rxDelay is additional latency between a frame finishing on the wire
	// and the handler running (IRQ signalling + NAPI scheduling). Folding it
	// into the delivery event spares the receiver one timer per frame.
	rxDelay sim.Duration
	fabric  *Fabric
	handler func(*Frame)

	// queues is the tx/rx queue count (>= 1). Each flow is steered to one
	// tx queue (serialization lane) on the source and one rx queue on the
	// destination by the fabric's seeded steering function.
	queues int

	// txBusy tracks when each outgoing (tx queue, dst) lane frees up.
	// Link serialization state is per source NIC — not fabric-global —
	// so NICs on different engine shards never share mutable state.
	// Multi-queue NICs serialize each queue independently, like separate
	// hardware descriptor rings behind one wire.
	txBusy map[txKey]sim.Time

	// rng drives this NIC's egress loss decisions, one private stream per
	// tx queue. Giving every queue its own deterministic stream (seeded
	// from the fabric seed, the node ID, and the queue index) keeps drop
	// sequences independent of how sends from different nodes — or other
	// queues of the same node — interleave: a requirement for
	// shard-count-invariant traces, and the right model anyway (one
	// flow's traffic should not perturb another's loss pattern). Queue 0
	// keeps the historical per-NIC seed, so single-queue runs are
	// bit-for-bit identical to the pre-multi-queue simulator.
	rng []*rand.Rand

	// rxRng holds the per-rx-queue streams for ingress loss decisions
	// under degradation. Ingress and egress must not share a stream:
	// egress draws happen at send time on the source engine, ingress
	// draws at delivery time on this NIC's engine, and interleaving them
	// would make drop sequences depend on global event order.
	rxRng []*rand.Rand

	// Lifecycle and degradation state. Both are only ever mutated by
	// events on this NIC's own engine (chaos events land on the owning
	// shard); Send consults the source NIC's state, Deliver the
	// destination's, so no cross-shard reads of mutable state occur.
	down bool
	// degradeDepth counts overlapping degradation windows; the NIC is
	// degraded while it is positive. The most recent SetDegraded wins for
	// the effect values — chaos windows restore by depth, not by value.
	degradeDepth int
	degrade      Degrade

	// Statistics. txFrames doubles as the per-source sequence number the
	// shard router uses to tie-break simultaneous cross-shard arrivals —
	// it stays NIC-global (not per queue) so the tie-break key remains
	// unique per source whatever the queue layout.
	txFrames, rxFrames uint64
	txBytes, rxBytes   uint64
	dropped            uint64
	// Per-queue frame counters (len == queues), for steering tests and
	// queue-utilization reporting.
	txqFrames, rxqFrames []uint64
}

// txKey identifies one serialization lane: a tx queue paired with a
// destination node.
type txKey struct {
	queue int
	dst   int
}

// MTU returns the NIC's maximum payload size.
func (n *NIC) MTU() int { return n.mtu }

// TxFrames reports frames sent. RxFrames reports frames delivered.
func (n *NIC) TxFrames() uint64 { return n.txFrames }

// RxFrames reports frames delivered to the handler.
func (n *NIC) RxFrames() uint64 { return n.rxFrames }

// TxBytes reports payload bytes sent.
func (n *NIC) TxBytes() uint64 { return n.txBytes }

// RxBytes reports payload bytes received.
func (n *NIC) RxBytes() uint64 { return n.rxBytes }

// Dropped reports frames lost on links out of this NIC.
func (n *NIC) Dropped() uint64 { return n.dropped }

// Queues returns the NIC's tx/rx queue count.
func (n *NIC) Queues() int { return n.queues }

// TxQueueFrames reports frames sent through tx queue q.
func (n *NIC) TxQueueFrames(q int) uint64 { return n.txqFrames[q] }

// RxQueueFrames reports frames delivered on rx queue q.
func (n *NIC) RxQueueFrames(q int) uint64 { return n.rxqFrames[q] }

// SetQueues resizes the NIC to q tx/rx queues (q >= 1), rebuilding the
// per-queue RNG streams. Queue 0 keeps the NIC's historical seed; higher
// queues derive theirs from (fabric seed, node ID, queue index). Must be
// called before any traffic flows — it resets the loss streams.
func (n *NIC) SetQueues(q int) {
	if q < 1 {
		panic(fmt.Sprintf("ethernet: NIC queue count %d < 1", q))
	}
	n.queues = q
	n.rng = make([]*rand.Rand, q)
	n.rxRng = make([]*rand.Rand, q)
	seed := n.fabric.Seed
	for i := 0; i < q; i++ {
		salt := int64(uint64(i) * 0x94d049bb133111eb) // 0 for queue 0: legacy seed
		n.rng[i] = rand.New(rand.NewSource(seed ^ int64(uint64(n.nodeID)*0x9e3779b97f4a7c15) ^ salt))
		n.rxRng[i] = rand.New(rand.NewSource(seed ^ int64(uint64(n.nodeID)*0x9e3779b97f4a7c15+0x6b79b56c3b21cd4f) ^ salt))
	}
	n.txqFrames = make([]uint64, q)
	n.rxqFrames = make([]uint64, q)
}

// SetDown sets the NIC's link state. A down NIC transmits nothing and
// discards every arriving frame — the node has gone dark as far as the
// fabric is concerned. Must be called from an event on the NIC's own
// engine (shard ownership).
func (n *NIC) SetDown(down bool) { n.down = down }

// SetDegraded opens one degradation window with the given impairments.
// Windows nest: each SetDegraded must be balanced by one ClearDegraded,
// and the NIC stays degraded (with the most recent effects) until the
// depth returns to zero. Must run on the NIC's own engine.
func (n *NIC) SetDegraded(d Degrade) {
	n.degradeDepth++
	n.degrade = d
}

// ClearDegraded closes one degradation window.
func (n *NIC) ClearDegraded() {
	if n.degradeDepth == 0 {
		panic("ethernet: ClearDegraded without matching SetDegraded")
	}
	n.degradeDepth--
}

// SetHandler installs the RX interrupt handler.
func (n *NIC) SetHandler(h func(*Frame)) { n.handler = h }

// SetRxDelay sets the latency between wire arrival and handler invocation
// (IRQ + NAPI pipeline latency; pure delay, no core time). It bounds
// MinLatency, so set it before anything reads that (cluster.New does, once
// its nodes are built).
func (n *NIC) SetRxDelay(d sim.Duration) { n.rxDelay = d }

// Fabric is a set of NICs with a link between every pair (and a loopback
// path within a node). Every inter-node pair shares the LinkConfig given at
// construction.
type Fabric struct {
	eng  *sim.Engine
	cfg  LinkConfig
	nics map[int]*NIC
	// Seed derives each NIC's private loss RNG; set it before adding NICs
	// (the cluster builder passes its simulation seed through).
	Seed int64
	// route, when non-nil, replaces direct delivery scheduling: every
	// frame is handed to the shard router, which schedules Deliver on the
	// destination NIC's engine at the given arrival time. Every cluster
	// installs one; it is nil only on a fabric built outside a cluster,
	// which schedules delivery on the sending NIC's engine.
	route RouteFunc
	// DropFilter, when non-nil, is consulted per frame; returning true
	// drops it. Used for deterministic loss injection in tests.
	DropFilter func(*Frame) bool
	// LoopbackBytesPerSec bounds intra-node delivery (shared-memory-ish);
	// zero means same speed as the wire.
	LoopbackBytesPerSec float64
}

// RouteFunc carries one frame across a shard boundary: schedule deliver,
// the frame's bound hand-over to its destination NIC, on the engine that
// owns node fr.Dst at arrival time when. sendTime and srcSeq (the sending
// NIC's frame counter) are the canonical tie-break key for arrivals
// sharing an instant.
type RouteFunc func(fr *Frame, deliver func(), when, sendTime sim.Time, srcSeq uint64)

// NewFabric creates an empty fabric with the given link parameters.
func NewFabric(eng *sim.Engine, cfg LinkConfig) *Fabric {
	if cfg.BytesPerSec <= 0 {
		panic("ethernet: non-positive link bandwidth")
	}
	return &Fabric{
		eng:  eng,
		cfg:  cfg,
		nics: make(map[int]*NIC),
	}
}

// SetRouter installs the cross-shard delivery path. Must be called
// before any traffic flows.
func (f *Fabric) SetRouter(r RouteFunc) { f.route = r }

// AddNIC registers a NIC for nodeID with the given MTU (0 selects
// DefaultMTU) and returns it. The NIC schedules on the fabric's engine.
func (f *Fabric) AddNIC(nodeID, mtu int) *NIC {
	return f.AddNICOn(f.eng, nodeID, mtu)
}

// AddNICOn registers a NIC whose events run on the given engine — the
// shard that owns nodeID in a sharded cluster. With every node on one
// engine it is identical to AddNIC.
func (f *Fabric) AddNICOn(eng *sim.Engine, nodeID, mtu int) *NIC {
	if _, dup := f.nics[nodeID]; dup {
		panic(fmt.Sprintf("ethernet: duplicate NIC for node %d", nodeID))
	}
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	n := &NIC{
		eng:    eng,
		nodeID: nodeID,
		mtu:    mtu,
		fabric: f,
		txBusy: make(map[txKey]sim.Time),
	}
	n.SetQueues(1)
	f.nics[nodeID] = n
	return n
}

// SteerQueue is the seeded RSS-style steering function: it maps a flow id
// onto one of queues lanes. The hash mixes the fabric seed, so steering is
// deterministic per fabric but decorrelated across seeds (like Toeplitz
// RSS with a random key). SteerQueue(_, 1) is always 0.
func (f *Fabric) SteerQueue(flow uint64, queues int) int {
	if queues <= 1 {
		return 0
	}
	h := flow ^ uint64(f.Seed)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(queues))
}

// NIC returns the NIC registered for nodeID.
func (f *Fabric) NIC(nodeID int) *NIC { return f.nics[nodeID] }

// Config returns the fabric's link configuration.
func (f *Fabric) Config() LinkConfig { return f.cfg }

// MinLatency reports the shortest time any frame can take from Send to its
// handler: TxOverhead, then PropDelay, then the smallest rx delay among the
// fabric's NICs. It leaves out wire time, so no bandwidth, loopback rate or
// degradation window can undercut it (degradation only adds latency). A
// frame sent at t is never handled before t+MinLatency, which makes it the
// conservative lookahead of a sharded cluster's engines.
func (f *Fabric) MinLatency() sim.Duration {
	var rx sim.Duration
	first := true
	for _, n := range f.nics {
		if first || n.rxDelay < rx {
			rx, first = n.rxDelay, false
		}
	}
	return TxOverhead + f.cfg.PropDelay + rx
}

// Send transmits a frame. The frame occupies the (src,dst) direction of the
// wire for its serialization time; frames queued behind it wait. Delivery
// fires the destination NIC's handler after propagation. Sending to an
// unknown destination or oversized frames panic — both are driver bugs, not
// runtime conditions.
func (n *NIC) Send(fr *Frame) {
	if fr.Size < 0 || fr.Size > n.mtu {
		panic(fmt.Sprintf("ethernet: frame size %d outside [0,%d]", fr.Size, n.mtu))
	}
	dst, ok := n.fabric.nics[fr.Dst]
	if !ok {
		panic(fmt.Sprintf("ethernet: send to unknown node %d", fr.Dst))
	}
	if n.down {
		// A dark NIC transmits nothing: the frame vanishes without
		// occupying the wire or advancing the tx sequence.
		n.dropped++
		return
	}
	fr.Src = n.nodeID
	// Steer the flow: one tx serialization lane on this NIC, one rx queue
	// on the destination (recorded in the frame, read at Deliver time).
	txq := n.fabric.SteerQueue(fr.Flow, n.queues)
	fr.Queue = n.fabric.SteerQueue(fr.Flow, dst.queues)
	n.txFrames++
	n.txqFrames[txq]++
	n.txBytes += uint64(fr.Size)

	bw := n.fabric.cfg.BytesPerSec
	if fr.Dst == n.nodeID && n.fabric.LoopbackBytesPerSec > 0 {
		bw = n.fabric.LoopbackBytesPerSec
	}
	if n.degradeDepth > 0 && n.degrade.BandwidthFactor > 0 {
		bw *= n.degrade.BandwidthFactor
	}
	wireTime := sim.Duration(float64(fr.Size+WireOverhead) / bw * 1e9)

	sendTime := n.eng.Now()
	lane := txKey{queue: txq, dst: fr.Dst}
	start := n.txBusy[lane]
	if start < sendTime {
		start = sendTime
	}
	start += TxOverhead
	end := start + wireTime
	n.txBusy[lane] = end

	if n.fabric.DropFilter != nil && n.fabric.DropFilter(fr) {
		n.dropped++
		return
	}
	if p := n.fabric.cfg.DropProb; p > 0 && n.rng[txq].Float64() < p {
		n.dropped++
		return
	}
	when := end + n.fabric.cfg.PropDelay + dst.rxDelay
	if n.degradeDepth > 0 {
		if p := n.degrade.DropProb; p > 0 && n.rng[txq].Float64() < p {
			n.dropped++
			return
		}
		when += n.degrade.ExtraLatency
	}
	fr.to = dst
	if fr.deliver == nil {
		fr.deliver = func() { fr.to.Deliver(fr) }
	}
	if n.fabric.route != nil {
		n.fabric.route(fr, fr.deliver, when, sendTime, n.txFrames)
		return
	}
	n.eng.At(when, fr.deliver)
}

// Deliver hands an arrived frame to the NIC's handler, in interrupt
// context at the current simulated time. The shard router calls it on
// the destination engine; a fabric without a router schedules it directly.
// Destination-side impairments apply here, on the destination engine,
// reading only destination-owned state: a down NIC discards the frame, a
// degraded one may drop it (rx RNG) or defer the handler by the window's
// extra latency.
func (n *NIC) Deliver(fr *Frame) {
	if n.down {
		n.dropped++
		return
	}
	rxq := fr.Queue
	if rxq >= n.queues {
		rxq = 0 // queue layout changed mid-flight; fall back to queue 0
	}
	if n.degradeDepth > 0 {
		if p := n.degrade.DropProb; p > 0 && n.rxRng[rxq].Float64() < p {
			n.dropped++
			return
		}
		if d := n.degrade.ExtraLatency; d > 0 {
			n.eng.After(d, func() { n.deliverNow(fr) })
			return
		}
	}
	n.deliverNow(fr)
}

func (n *NIC) deliverNow(fr *Frame) {
	if n.down {
		// The NIC went dark while the frame sat in the deferred-delivery
		// window.
		n.dropped++
		return
	}
	n.rxFrames++
	if fr.Queue < n.queues {
		n.rxqFrames[fr.Queue]++
	} else {
		n.rxqFrames[0]++
	}
	n.rxBytes += uint64(fr.Size)
	if n.handler != nil {
		n.handler(fr)
	}
}

// SerializationTime reports how long a payload of size bytes occupies the
// wire, including per-frame overhead. Useful for calibration tests.
func (f *Fabric) SerializationTime(size int) sim.Duration {
	return sim.Duration(float64(size+WireOverhead) / f.cfg.BytesPerSec * 1e9)
}
