// Package omx implements the Open-MX stack on the simulated substrates: the
// MXoE wire protocol (eager messages, rendezvous + pull + notify for large
// ones), endpoints with MX-style 64-bit matching, the kernel driver's
// receive bottom halves, I/OAT receive-copy offload, retransmission, and —
// through internal/core — the paper's decoupled/overlapped/cached memory
// pinning (paper §2.2, §3).
package omx

import (
	"fmt"

	"omxsim/internal/core"
	"omxsim/internal/vm"
)

// EndpointAddr identifies an endpoint as (node, endpoint id), like an MX
// board/endpoint pair.
type EndpointAddr struct {
	Node int
	EP   int
}

// String renders the address as node:ep.
func (a EndpointAddr) String() string { return fmt.Sprintf("%d:%d", a.Node, a.EP) }

// msgKey globally identifies a message: sender address plus the sender's
// per-destination sequence number.
type msgKey struct {
	src EndpointAddr
	seq uint64
}

// Wire message payloads. Each is carried in an ethernet.Frame whose Size
// accounts for the header overhead below plus any data bytes.

// headerBytes is the MXoE header size per frame, charged on the wire in
// addition to data.
const headerBytes = 32

// eagerFrag is one fragment of an eager (<= threshold) message. The
// envelope (match information) travels on every fragment; the first one to
// arrive triggers matching.
type eagerFrag struct {
	src, dst EndpointAddr
	seq      uint64 // per (src,dst) pair ordering
	match    uint64
	total    int
	off      int
	data     []byte
	nfrags   int
	frag     int
	// doneBelow is the sender's finished watermark toward dst: every seq
	// at or below it is delivered or aborted, so the receiver's in-order
	// admission must not wait for gaps below it (gaps appear when a send
	// aborts — peer declared dead, crash — without the receiver ever
	// seeing its envelope).
	doneBelow uint64
}

// eagerAck acknowledges complete receipt of an eager message.
type eagerAck struct {
	src, dst EndpointAddr // src = original receiver
	seq      uint64       // the acked message's seq
}

// rndvMsg announces a large message: the receiver will pull the data from
// the sender's region (paper Figure 2).
type rndvMsg struct {
	src, dst EndpointAddr
	seq      uint64
	match    uint64
	total    int
	// doneBelow: see eagerFrag. Recomputed on every (re)transmission, so
	// later aborts propagate with the retries.
	doneBelow uint64
}

// pullRange names one requested block of a message.
type pullRange struct {
	off, length int
}

// pullReq asks the sender to transmit the listed blocks of message seq.
// The receiver batches a whole pull window into one request frame (block
// descriptors are a few bytes each; the frame stays header-sized), so
// issuing a window costs one wire event instead of one per block.
// Receiver-driven; duplicates are harmless (the sender is stateless for
// pulls and the receiver dedups by fragment).
//
// Requests are recycled: the issuing node takes one from its pool
// (Node.newPullReq, keeping the blocks array), and the serving node puts
// it into its own once handled. live is false while it sits in a pool.
type pullReq struct {
	src, dst EndpointAddr // src = receiver issuing the pull
	seq      uint64
	blocks   []pullRange
	live     bool

	// Set by the serving endpoint for its bottom half (servePullBH): the
	// send being served and its region.
	ep     *Endpoint
	ss     *sendState
	region *core.Region
}

// pullReply carries data fragment [off, off+buf.Len()) of message seq. The
// payload is a zero-copy view of the sender's pinned frames (vm.Buf): the
// wire Size still charges the full data length, but the host moves no bytes
// unless a page is rewritten mid-flight.
//
// Replies are recycled like requests (Node.newPullReply): the buf keeps
// its chunk array across uses, and the receiving node releases it and
// takes the reply back on every path that consumes or drops it.
type pullReply struct {
	src, dst EndpointAddr
	seq      uint64
	off      int
	buf      vm.Buf
	live     bool

	// Set by the receiving endpoint for its commit (commitReplyBH): the
	// message being pulled and its receive region.
	ep     *Endpoint
	rs     *rstate
	region *core.Region
}

// notifyMsg tells the sender all data arrived (paper Figure 2: "notify").
type notifyMsg struct {
	src, dst EndpointAddr
	seq      uint64
}

// notifyAck confirms the notify so the receiver can stop retransmitting it.
type notifyAck struct {
	src, dst EndpointAddr
	seq      uint64
}

// abortMsg tells the receiver the sender aborted message seq (e.g. its send
// buffer was freed mid-transfer and the pin was invalidated), so the
// receiver stops pulling and errors its request.
type abortMsg struct {
	src, dst EndpointAddr
	seq      uint64
}

// addrs exposes the endpoint pair of every wire payload, for frame
// demultiplexing and flow steering.
func (m *eagerFrag) addrs() (src, dst EndpointAddr) { return m.src, m.dst }
func (m *eagerAck) addrs() (src, dst EndpointAddr)  { return m.src, m.dst }
func (m *rndvMsg) addrs() (src, dst EndpointAddr)   { return m.src, m.dst }
func (m *pullReq) addrs() (src, dst EndpointAddr)   { return m.src, m.dst }
func (m *pullReply) addrs() (src, dst EndpointAddr) { return m.src, m.dst }
func (m *notifyMsg) addrs() (src, dst EndpointAddr) { return m.src, m.dst }
func (m *notifyAck) addrs() (src, dst EndpointAddr) { return m.src, m.dst }
func (m *abortMsg) addrs() (src, dst EndpointAddr)  { return m.src, m.dst }

// wirePayload is the interface every protocol message implements.
type wirePayload interface {
	addrs() (src, dst EndpointAddr)
}

// FlowOf maps an endpoint pair onto a transport flow id, the input of the
// NIC's RSS-style steering: all traffic between one (src endpoint, dst
// endpoint) pair serializes on one tx lane and lands on one rx queue —
// queue-qualified addressing without widening EndpointAddr on the wire.
func FlowOf(src, dst EndpointAddr) uint64 {
	return uint64(uint16(src.Node))<<48 | uint64(uint16(src.EP))<<32 |
		uint64(uint16(dst.Node))<<16 | uint64(uint16(dst.EP))
}

// matches implements MX matching: the receive matches the message iff the
// masked match information is equal.
func matches(recvMatch, recvMask, msgMatch uint64) bool {
	return (msgMatch & recvMask) == (recvMatch & recvMask)
}

// Segment aliases core.Segment for the public API surface of this package.
type Segment = core.Segment
