package omx

import (
	"fmt"

	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
)

// readUserBuf copies the send segments out of the application's virtual
// memory (page-table walk in syscall context — the eager path never pins,
// it copies through statically pinned intermediate buffers, paper §2.2).
func (ep *Endpoint) readUserBuf(segs []Segment, total int) ([]byte, error) {
	buf := make([]byte, total)
	off := 0
	for _, s := range segs {
		if err := ep.AS.Read(s.Addr, buf[off:off+s.Len]); err != nil {
			return nil, err
		}
		off += s.Len
	}
	return buf, nil
}

// startEager sends a small message as MTU-sized fragments carrying the data
// inline. The copy into the intermediate buffer is charged on the sending
// core at kernel priority.
func (ep *Endpoint) startEager(ss *sendState, match uint64) {
	data, err := ep.readUserBuf(ss.req.segs, ss.total)
	if err != nil {
		delete(ep.sends, sendKey{ss.dst, ss.seq})
		ep.complete(ss.req, fmt.Errorf("omx: eager send: %w", err))
		return
	}
	ss.data = data
	copyCost := ep.core.Spec().CopyCost(ss.total)
	ep.core.Submit(cpu.Kernel, copyCost, func() {
		ep.sendEagerFrags(ss, match)
		ep.armSendTimer(ss, func() { ep.sendEagerFrags(ss, match) })
	})
}

// sendEagerFrags (re)transmits every fragment of an eager message.
func (ep *Endpoint) sendEagerFrags(ss *sendState, match uint64) {
	maxData := ep.node.maxData()
	nfrags := (ss.total + maxData - 1) / maxData
	if nfrags == 0 {
		nfrags = 1 // zero-length messages still carry an envelope
	}
	db := ep.doneBelow(ss.dst)
	for f := 0; f < nfrags; f++ {
		off := f * maxData
		end := off + maxData
		if end > ss.total {
			end = ss.total
		}
		ep.node.send(ss.dst.Node, end-off, &eagerFrag{
			src: ep.addr, dst: ss.dst, seq: ss.seq, match: match,
			total: ss.total, off: off, data: ss.data[off:end],
			nfrags: nfrags, frag: f, doneBelow: db,
		})
	}
}

// startRendezvous begins a large-message send: declare (cache), pin per
// policy, send the rendezvous envelope. Under synchronous policies the
// rendezvous waits for the pin (Figure 2); under Overlapped it goes out
// immediately and pinning proceeds behind the transfer (Figure 5).
func (ep *Endpoint) startRendezvous(ss *sendState, match uint64) {
	ep.proc.cache.GetAsyncOn(ep.core, ss.req.segs, func(r *core.Region, err error) {
		if err != nil {
			delete(ep.sends, sendKey{ss.dst, ss.seq})
			ep.complete(ss.req, fmt.Errorf("omx: declare: %w", err))
			return
		}
		ss.req.region = r
		acq := ep.proc.mgr.Acquire(r)
		ss.req.acquired = true
		sendRndv := func() {
			if ss.req.done.Done() {
				return
			}
			ep.emit(trace.RndvSent, ss.seq, ss.total, 0)
			ep.node.send(ss.dst.Node, 0, &rndvMsg{
				src: ep.addr, dst: ss.dst, seq: ss.seq, match: match, total: ss.total,
				doneBelow: ep.doneBelow(ss.dst),
			})
			ep.armSendTimer(ss, func() {
				ep.node.send(ss.dst.Node, 0, &rndvMsg{
					src: ep.addr, dst: ss.dst, seq: ss.seq, match: match, total: ss.total,
					doneBelow: ep.doneBelow(ss.dst),
				})
			})
		}
		if !ss.req.overlap {
			acq.OnDone(ep.node.Eng, func() {
				if acq.Err() != nil {
					ep.abortSend(ss, fmt.Errorf("%w: %v", ErrPinAborted, acq.Err()))
					return
				}
				sendRndv()
			})
			return
		}
		// Overlapped: transfer first, pin behind it. A pin failure aborts
		// the request; the receiver learns via an abort message.
		acq.OnDone(ep.node.Eng, func() {
			if acq.Err() != nil {
				ep.abortSend(ss, fmt.Errorf("%w: %v", ErrPinAborted, acq.Err()))
			}
		})
		// §4.3 mitigation: hold the rendezvous until a small prefix is
		// pinned, so the first pull requests never outrun the cursor.
		ep.proc.mgr.OnPinProgress(r, ep.cfg.SyncPrefixPages, func(err error) {
			if err != nil {
				return // the acquire completion above handles the abort
			}
			sendRndv()
		})
	})
}

// abortSend fails a send request and stops its timers.
func (ep *Endpoint) abortSend(ss *sendState, err error) {
	ss.rtxTimer.Cancel()
	delete(ep.sends, sendKey{ss.dst, ss.seq})
	ep.complete(ss.req, err)
}

// retryBackoff is the exponential retry-delay schedule shared by the
// sender and receiver liveness timers: the base delay doubles per
// consecutive silent try, capped at 8x, so a dead peer costs
// geometrically fewer probe frames while a lossy-but-alive one (whose
// progress resets tries) keeps the fast cadence.
func retryBackoff(base sim.Duration, tries int) sim.Duration {
	shift := tries
	if shift > 3 {
		shift = 3
	}
	return base << uint(shift)
}

// armSendTimer (re)arms a send's timer. While resend is non-nil the
// control message (the eager fragments or the rendezvous) is unacked, and
// each timeout resends it. A nil resend means a pull request acked the
// rendezvous and the send waits for the notify: pull traffic re-arms the
// timer. Either way PeerDeadTimeout of silence, or maxRetries consecutive
// timeout periods, aborts the request. Arming cancels the pending timer,
// so the one that fires always sees the resend it was armed with; the
// callback is bound once per send, so re-arming allocates nothing.
func (ep *Endpoint) armSendTimer(ss *sendState, resend func()) {
	ss.resend = resend
	if ss.onTimer == nil {
		ss.onTimer = func() { ep.sendTimeout(ss) }
	}
	ss.rtxTimer.Cancel()
	ss.rtxTimer = ep.node.Eng.After(retryBackoff(ep.cfg.RetransmitTimeout, ss.tries), ss.onTimer)
}

// sendTimeout runs when a send's timer fires (armSendTimer).
func (ep *Endpoint) sendTimeout(ss *sendState) {
	if ss.req.done.Done() || (ss.resend != nil && ss.acked) {
		return
	}
	if quiet := ep.node.Eng.Now() - ss.quietSince; quiet >= ep.cfg.PeerDeadTimeout {
		ep.abortSend(ss, fmt.Errorf("%w: silent for %v", ErrPeerDead, quiet))
		return
	}
	ss.tries++
	if ss.tries > maxRetries {
		if ss.resend == nil {
			ep.abortSend(ss, fmt.Errorf("%w: peer inactive", ErrAborted))
		} else {
			ep.abortSend(ss, fmt.Errorf("%w: retransmit limit", ErrAborted))
		}
		return
	}
	if ss.resend != nil {
		ep.node.stats.Retransmits++
		ss.resend()
	}
	ep.armSendTimer(ss, ss.resend)
}

// handleEagerAck completes an eager send.
func (ep *Endpoint) handleEagerAck(m *eagerAck) {
	ss, ok := ep.sends[sendKey{m.src, m.seq}]
	if !ok {
		return // duplicate ack
	}
	ss.acked = true
	ss.rtxTimer.Cancel()
	delete(ep.sends, sendKey{m.src, m.seq})
	ep.complete(ss.req, nil)
}

// handlePullReq serves a pull request from the send region: the paper's
// sender-side bottom half ("when a pull packet is received, data is read
// from the send region and attached to pull reply packets", §2.2). The read
// goes through the pinned frames — zero-copy, no CPU copy cost, only
// per-reply descriptor work. If the requested range is beyond the pinned
// prefix (overlapped pinning hasn't caught up), the request is dropped and
// the receiver's optimistic re-request recovers it — an overlap miss
// (paper §3.3, §4.3). The request goes back into the node's pool once
// served or dropped.
func (ep *Endpoint) handlePullReq(m *pullReq) {
	mustBeLive(m.live, "pull request")
	ss, ok := ep.sends[sendKey{m.src, m.seq}]
	if !ok {
		// Completed or aborted here. A receiver still pulling (it missed
		// our abort, or we crashed and restarted) would otherwise
		// re-request until its own liveness bound: nack it. Duplicate
		// pull requests racing the final notify are harmless — the
		// receiver ignores aborts for completed messages.
		ep.node.send(m.src.Node, 0, &abortMsg{src: ep.addr, dst: m.src, seq: m.seq})
		ep.node.recyclePullReq(m)
		return
	}
	if ss.req.region == nil {
		ep.node.recyclePullReq(m)
		return // declaration still in flight
	}
	// First pull request implicitly acknowledges the rendezvous. From then
	// on an inactivity timer bounds the wait for the notify: pull traffic
	// re-arms it, total silence for PeerDeadTimeout (a dead or closed
	// peer) aborts the send instead of hanging forever.
	if !ss.acked {
		ss.acked = true
		ss.rtxTimer.Cancel()
	}
	ss.tries = 0
	ss.quietSince = ep.node.Eng.Now()
	ep.armSendTimer(ss, nil)
	region := ss.req.region
	maxData := ep.node.maxData()
	// Filter the burst in place through the overlap-miss check per block,
	// then serve every ready block as one bottom-half item: the whole
	// window's reply descriptors are charged (and its fragments enqueued
	// on the wire) in a single event rather than one per block.
	ready := m.blocks[:0]
	totalFrags := 0
	for _, b := range m.blocks {
		if !region.Ready(b.off, b.length) {
			ep.node.stats.OverlapMissSender++
			ep.emit(trace.OverlapMissSnd, m.seq, b.off, b.length)
			continue
		}
		ep.emit(trace.PullReplySent, m.seq, b.off, b.length)
		totalFrags += (b.length + maxData - 1) / maxData
		ready = append(ready, b)
	}
	m.blocks = ready
	if len(ready) == 0 {
		ep.node.recyclePullReq(m)
		return
	}
	// Per-reply descriptor cost, charged as one BH item for the burst.
	m.ep, m.ss, m.region = ep, ss, region
	ep.node.rxCore.SubmitArg(cpu.BottomHalf, sim.Duration(totalFrags)*100*sim.Nanosecond, servePullBH, m)
}

// servePullBH and commitReplyBH are the two pull bottom halves queued
// with their message as the argument. Each message carries its endpoint
// and the state its handler needs, so neither is bound to anything and
// queuing one allocates nothing.
func servePullBH(arg any) {
	m := arg.(*pullReq)
	m.ep.servePull(m)
}

// servePull attaches the requested blocks' data to pull replies, one per
// frame's worth, and puts the request back into the pool.
func (ep *Endpoint) servePull(m *pullReq) {
	mustBeLive(m.live, "pull request")
	defer ep.node.recyclePullReq(m)
	maxData := ep.node.maxData()
	for _, blk := range m.blocks {
		for off := blk.off; off < blk.off+blk.length; off += maxData {
			n := min(maxData, blk.off+blk.length-off)
			r := ep.node.newPullReply(ep.addr, m.src, m.seq, off)
			if err := m.region.ReadBufAt(off, n, &r.buf); err != nil {
				// Region invalidated between the Ready check and the read
				// (application bug: freed a buffer mid-send). Abort.
				ep.node.recyclePullReply(r)
				ep.abortSend(m.ss, fmt.Errorf("%w: %v", ErrPinAborted, err))
				return
			}
			ep.node.send(m.src.Node, n, r)
		}
	}
}

// handleNotify completes a large send: all data reached the receiver.
func (ep *Endpoint) handleNotify(m *notifyMsg) {
	// Always ack, even for unknown messages (duplicate notify after our
	// state was reaped).
	ep.node.send(m.src.Node, 0, &notifyAck{src: ep.addr, dst: m.src, seq: m.seq})
	ss, ok := ep.sends[sendKey{m.src, m.seq}]
	if !ok {
		return
	}
	ss.rtxTimer.Cancel()
	delete(ep.sends, sendKey{m.src, m.seq})
	ep.complete(ss.req, nil)
}
