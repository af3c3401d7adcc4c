package omx

import (
	"errors"
	"fmt"
	"slices"

	"omxsim/internal/cpu"
	"omxsim/internal/ioat"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
)

// handleEagerFrag processes one eager fragment in the bottom half: copy into
// the kernel intermediate buffer, reassemble, ack when complete, deliver if
// matched.
func (ep *Endpoint) handleEagerFrag(m *eagerFrag) {
	ep.advanceDone(m.src, m.doneBelow)
	key := msgKey{m.src, m.seq}
	rs, ok := ep.rstates[key]
	if !ok {
		if m.seq <= ep.recvNext[m.src] {
			// Already fully received and reaped: the ack was lost. Re-ack.
			ep.node.send(m.src.Node, 0, &eagerAck{src: ep.addr, dst: m.src, seq: m.seq})
			return
		}
		rs = &rstate{
			key: key, match: m.match, total: m.total,
			buf: make([]byte, m.total), got: newFragSet(m.nfrags), nfrags: m.nfrags,
		}
		ep.rstates[key] = rs
		ep.admit(m.src)
	}
	if rs.got.has(m.frag) {
		return
	}
	rs.got.add(m.frag)
	copy(rs.buf[m.off:], m.data)
	rs.received += len(m.data)
	rs.fragsGot++
	if rs.fragsGot == rs.nfrags {
		// Message is safely buffered in the kernel: acknowledge now; the
		// send completes regardless of when the receive is posted.
		ep.node.send(m.src.Node, 0, &eagerAck{src: ep.addr, dst: m.src, seq: m.seq})
		ep.maybeDeliverEager(rs)
	}
}

// maybeDeliverEager copies a fully buffered eager message into the matched
// user buffer. The copy is charged on the receiving process's core at
// kernel priority (it happens in the library's completion path).
func (ep *Endpoint) maybeDeliverEager(rs *rstate) {
	if rs.matched == nil || rs.fragsGot != rs.nfrags || rs.completed {
		return
	}
	rs.completed = true
	req := rs.matched
	n := rs.total
	var truncErr error
	if n > req.postedLen {
		n = req.postedLen
		truncErr = ErrTruncated
	}
	ep.core.Submit(cpu.Kernel, ep.core.Spec().CopyCost(n), func() {
		off := 0
		for _, s := range req.segs {
			if off >= n {
				break
			}
			l := s.Len
			if off+l > n {
				l = n - off
			}
			if err := ep.AS.Write(s.Addr, rs.buf[off:off+l]); err != nil {
				ep.complete(req, fmt.Errorf("omx: eager deliver: %w", err))
				delete(ep.rstates, rs.key)
				return
			}
			off += l
		}
		delete(ep.rstates, rs.key)
		ep.complete(req, truncErr)
	})
}

// handleRndv admits a large-message envelope; the pull starts when (and if)
// a receive matches it.
func (ep *Endpoint) handleRndv(m *rndvMsg) {
	ep.advanceDone(m.src, m.doneBelow)
	key := msgKey{m.src, m.seq}
	if _, ok := ep.rstates[key]; ok {
		return // duplicate rendezvous; transfer already in progress
	}
	if m.seq <= ep.recvNext[m.src] {
		// Completed and reaped: the sender missed our notify. Resend it.
		ep.node.send(m.src.Node, 0, &notifyMsg{src: ep.addr, dst: m.src, seq: m.seq})
		return
	}
	ep.emit(trace.RndvRecv, m.seq, m.total, 0)
	rs := &rstate{key: key, match: m.match, total: m.total, isLarge: true}
	ep.rstates[key] = rs
	ep.admit(m.src)
}

// startPull begins pulling a matched large message into the receive region:
// acquire (pin per policy), then issue pull requests. Under synchronous
// policies the first pull request waits for the whole pin (Figure 2); under
// Overlapped it goes out immediately (Figure 5) and the per-fragment Ready
// check guards accesses.
func (ep *Endpoint) startPull(rs *rstate, req *Request) {
	if rs.total > req.postedLen {
		// Truncation: don't transfer; tell the sender it's done and error
		// the receive.
		ep.finishPull(rs, ErrTruncated)
		return
	}
	nblocks := (rs.total + pullBlockSize - 1) / pullBlockSize
	rs.blocks = make([]blockState, nblocks)
	for i := range rs.blocks {
		off := i * pullBlockSize
		l := pullBlockSize
		if off+l > rs.total {
			l = rs.total - off
		}
		rs.blocks[i] = blockState{off: off, length: l}
	}
	rs.got = make(fragSet, nblocks)
	ep.activePulls[rs] = struct{}{}
	acq := ep.proc.mgr.Acquire(req.region)
	req.acquired = true
	if !req.overlap {
		acq.OnDone(ep.node.Eng, func() {
			if rs.completed {
				return
			}
			if acq.Err() != nil {
				ep.finishPull(rs, fmt.Errorf("%w: %v", ErrPinAborted, acq.Err()))
				return
			}
			ep.issueBlocks(rs)
			ep.armReRequest(rs)
		})
		return
	}
	acq.OnDone(ep.node.Eng, func() {
		if acq.Err() != nil && !rs.completed {
			ep.finishPull(rs, fmt.Errorf("%w: %v", ErrPinAborted, acq.Err()))
		}
	})
	// §4.3 mitigation: hold the first pull requests until a small prefix
	// is pinned, so early replies never outrun the cursor.
	ep.proc.mgr.OnPinProgress(req.region, ep.cfg.SyncPrefixPages, func(err error) {
		if err != nil || rs.completed {
			return
		}
		ep.issueBlocks(rs)
		ep.armReRequest(rs)
	})
}

// issueBlocks keeps the pull window full. All blocks issued at once ride a
// single request frame — the per-window burst — so filling a window costs
// one wire event instead of one per block.
func (ep *Endpoint) issueBlocks(rs *rstate) {
	var req *pullReq
	for rs.outstanding < ep.cfg.PullWindow && rs.nextBlockOff < len(rs.blocks) {
		b := &rs.blocks[rs.nextBlockOff]
		rs.nextBlockOff++
		rs.outstanding++
		b.lastReq = ep.node.Eng.Now()
		ep.emit(trace.PullReqSent, rs.key.seq, b.off, b.length)
		if req == nil {
			req = ep.node.newPullReq(ep.addr, rs.key.src, rs.key.seq)
		}
		req.blocks = append(req.blocks, pullRange{off: b.off, length: b.length})
	}
	if req != nil {
		ep.node.send(rs.key.src.Node, 0, req)
	}
	rs.lastProgress = ep.node.Eng.Now()
}

// reRequestBlock reissues the pull request for one block (duplicates are
// deduplicated at the receiver by the fragment bitmap).
func (ep *Endpoint) reRequestBlock(rs *rstate, b *blockState) {
	b.lastReq = ep.node.Eng.Now()
	ep.node.stats.ReRequests++
	ep.emit(trace.ReRequest, rs.key.seq, b.off, b.length)
	req := ep.node.newPullReq(ep.addr, rs.key.src, rs.key.seq)
	req.blocks = append(req.blocks, pullRange{off: b.off, length: b.length})
	ep.node.send(rs.key.src.Node, 0, req)
}

// noteArrival records an accepted fragment for gap detection and performs
// the paper's optimistic re-request: when data with a higher offset arrives
// while an older block still has holes, the oldest hole is re-requested
// immediately instead of waiting for the retransmission timeout (paper
// footnote 4). Re-requests are rate-limited per block.
func (ep *Endpoint) noteArrival(rs *rstate, off, n int) {
	now := ep.node.Eng.Now()
	rs.lastProgress = now
	bi := off / pullBlockSize
	rs.blocks[bi].accepted += n
	for rs.lowestHole < len(rs.blocks) &&
		rs.blocks[rs.lowestHole].accepted >= rs.blocks[rs.lowestHole].length {
		rs.lowestHole++
	}
	// Gap evidence: frames are delivered in request order per pair, so an
	// arrival for a block strictly beyond the oldest incomplete one proves
	// that older data was dropped (loss or overlap miss) — re-request it.
	// In-order streaming never triggers: arrivals belong to the lowest hole
	// itself, and the fragment completing block k leaves bi == k below the
	// advanced hole k+1. Duplicates never reach here (bitmap dedup).
	if bi > rs.lowestHole && rs.lowestHole < rs.nextBlockOff {
		hole := &rs.blocks[rs.lowestHole]
		if now-hole.lastReq >= gapReReqDelay {
			ep.reRequestBlock(rs, hole)
		}
	}
	// Cross-message gap evidence: per-pair sequence numbers mean this
	// arrival also proves that anything older from the same node should
	// have arrived. Re-request the oldest hole of other stalled pulls from
	// that node (rate-limited per block by gapReReqDelay). The set is keyed
	// by pointer, so candidates are collected and sorted by message key
	// before any wire traffic: map iteration order would otherwise leak
	// run-to-run nondeterminism into the re-request ordering.
	var stalled []*rstate
	for other := range ep.activePulls {
		if other == rs || other.completed || other.key.src.Node != rs.key.src.Node {
			continue
		}
		if other.lowestHole >= other.nextBlockOff {
			continue // nothing requested-and-missing
		}
		if now-other.lastProgress < crossGapDelay {
			continue
		}
		if now-other.blocks[other.lowestHole].lastReq >= crossGapDelay {
			stalled = append(stalled, other)
		}
	}
	slices.SortFunc(stalled, byMsgKey)
	for _, other := range stalled {
		ep.reRequestBlock(other, &other.blocks[other.lowestHole])
	}
}

// scheduleMissRetry arms a short local timer after a receiver-side overlap
// miss: when it fires, every requested-but-missing block whose pages are
// now pinned is re-requested. If the pin cursor is still behind, the timer
// re-arms. This is local knowledge (the receiver dropped the fragment
// itself), so it cannot false-fire on wire or service delays.
func (ep *Endpoint) scheduleMissRetry(rs *rstate) {
	if rs.missRetry.Pending() || rs.completed || rs.matched == nil {
		return
	}
	rs.missRetry = ep.node.Eng.After(gapReReqDelay, func() {
		if rs.completed || rs.matched == nil {
			return
		}
		region := rs.matched.region
		now := ep.node.Eng.Now()
		again := false
		for i := 0; i < rs.nextBlockOff; i++ {
			b := &rs.blocks[i]
			if b.accepted >= b.length {
				continue
			}
			if !region.Ready(b.off, b.length) {
				again = true // pin still behind: check back later
				continue
			}
			if now-b.lastReq >= gapReReqDelay {
				ep.reRequestBlock(rs, b)
			}
		}
		if again {
			ep.scheduleMissRetry(rs)
		}
	})
}

// armReRequest arms the block-requeue (silence) timer. The fast recovery
// path is gap-driven (noteArrival), like Open-MX's optimistic re-request;
// this timer catches total silence — a lost pull request with nothing
// behind it, or an overlap-miss avalanche that dropped every outstanding
// fragment — well before the coarse control-message timeout. Sustained
// silence backs the cadence off exponentially and, past PeerDeadTimeout,
// declares the sender dead: the pull aborts with ErrPeerDead instead of
// re-requesting a crashed or partitioned peer forever.
func (ep *Endpoint) armReRequest(rs *rstate) {
	ep.armReRequestAfter(rs, reRequestDelay)
}

// armReRequestAfter arms the timer to fire after delay. Arming cancels
// the pending timer, so the one that fires always sees the delay it was
// armed with; the callback is bound once per pull, so re-arming allocates
// nothing.
func (ep *Endpoint) armReRequestAfter(rs *rstate, delay sim.Duration) {
	rs.reqTimer.Cancel()
	rs.reqDelay = delay
	if rs.onReqTimer == nil {
		rs.onReqTimer = func() { ep.reRequestTimeout(rs) }
	}
	rs.reqTimer = ep.node.Eng.After(delay, rs.onReqTimer)
}

// reRequestTimeout runs when a pull's silence timer fires.
func (ep *Endpoint) reRequestTimeout(rs *rstate) {
	if rs.completed {
		return
	}
	stalled := ep.node.Eng.Now() - rs.lastProgress
	if stalled >= reRequestDelay {
		if stalled >= ep.cfg.PeerDeadTimeout {
			ep.finishPull(rs, fmt.Errorf("%w: pull silent for %v", ErrPeerDead, stalled))
			return
		}
		for i := 0; i < rs.nextBlockOff; i++ {
			b := &rs.blocks[i]
			if b.accepted >= b.length {
				continue
			}
			ep.reRequestBlock(rs, b)
		}
		next := rs.reqDelay * 2
		if max := 8 * reRequestDelay; next > max {
			next = max
		}
		ep.armReRequestAfter(rs, next)
		return
	}
	ep.armReRequest(rs)
}

// handlePullReply lands one data fragment in the receive region. This is
// the receive copy the paper discusses: on-CPU memcpy in the bottom half,
// or offloaded to I/OAT. If the target pages are beyond the pinned prefix,
// the fragment is dropped — an overlap miss — and recovered by re-request
// (paper §3.3: "drop the incoming packet and let retransmission happen").
//
// The fragment's payload is a Buf lent from the sender's pinned frames.
// Every path that consumes or drops it recycles the reply, which releases
// the Buf exactly once, here on the receiver's shard, so the sender's
// pages stop counting this holder.
func (ep *Endpoint) handlePullReply(m *pullReply) {
	mustBeLive(m.live, "pull reply")
	rs, ok := ep.rstates[msgKey{m.src, m.seq}]
	if !ok || rs.completed || rs.matched == nil {
		ep.node.recyclePullReply(m)
		return // late fragment after completion
	}
	region := rs.matched.region
	n := m.buf.Len()
	frag := pullFrag(m.off, ep.node.maxData())
	if rs.got.has(frag) {
		ep.node.recyclePullReply(m)
		return
	}
	if !region.Ready(m.off, n) {
		// Receiver-side overlap miss: the fragment outran the pin cursor
		// and is dropped (paper §3.3). Unlike a wire loss, the receiver
		// KNOWS it dropped data, so it arms a local retry that re-requests
		// the affected blocks as soon as the pin catches up — the paper's
		// "resent almost immediately".
		ep.node.stats.OverlapMissReceiver++
		ep.emit(trace.OverlapMissRcv, m.seq, m.off, n)
		ep.scheduleMissRetry(rs)
		ep.node.recyclePullReply(m)
		return
	}
	rs.got.add(frag)
	ep.node.stats.PullRepliesRx++
	ep.emit(trace.FragAccepted, m.seq, m.off, n)
	// Progress is measured at fragment *arrival* (the paper's optimistic
	// re-request reacts to missing packets, not to copy latency); this also
	// drives the gap-based re-request of older holes.
	ep.noteArrival(rs, m.off, n)
	m.ep, m.rs, m.region = ep, rs, region
	if ep.cfg.UseIOAT {
		ep.node.rxCore.Submit(cpu.BottomHalf, ioat.SetupCost, func() {
			ep.node.IOAT.SubmitCopy(n, nil, func() { ep.commitReply(m) })
		})
		return
	}
	ep.node.rxCore.SubmitArg(cpu.BottomHalf, ep.core.Spec().CopyCost(n), commitReplyBH, m)
}

func commitReplyBH(arg any) {
	m := arg.(*pullReply)
	m.ep.commitReply(m)
}

// commitReply copies an accepted fragment into the receive region once
// its copy is charged, then recycles the reply.
func (ep *Endpoint) commitReply(m *pullReply) {
	mustBeLive(m.live, "pull reply")
	defer ep.node.recyclePullReply(m)
	rs := m.rs
	if rs.completed {
		return
	}
	n := m.buf.Len()
	if err := m.region.WriteBufAt(m.off, &m.buf); err != nil {
		// Invalidated between check and copy: give the fragment back.
		rs.got.remove(pullFrag(m.off, ep.node.maxData()))
		rs.blocks[m.off/pullBlockSize].accepted -= n
		ep.node.stats.OverlapMissReceiver++
		return
	}
	rs.received += n
	bi := m.off / pullBlockSize
	b := &rs.blocks[bi]
	b.received += n
	rs.lastProgress = ep.node.Eng.Now()
	if !b.done && b.received >= b.length {
		b.done = true
		rs.outstanding--
		ep.issueBlocks(rs)
	}
	if rs.received >= rs.total {
		ep.finishPull(rs, nil)
	}
}

// finishPull completes a large receive: notify the sender (with
// retransmission until acked), release the region, complete the request.
func (ep *Endpoint) finishPull(rs *rstate, err error) {
	if rs.completed {
		return
	}
	rs.completed = true
	delete(ep.activePulls, rs)
	rs.reqTimer.Cancel()
	rs.missRetry.Cancel()
	if err != nil && (errors.Is(err, ErrPeerDead) || errors.Is(err, ErrTimeout)) {
		// The sender is dead or presumed dead: notifying it would only
		// spin the retransmit loop against silence. Reap immediately; a
		// surviving sender's own liveness bound cleans up its side.
		delete(ep.rstates, rs.key)
		ep.complete(rs.matched, err)
		return
	}
	sendNotify := func() {
		ep.emit(trace.NotifySent, rs.key.seq, rs.received, rs.total)
		ep.node.send(rs.key.src.Node, 0, &notifyMsg{src: ep.addr, dst: rs.key.src, seq: rs.key.seq})
	}
	sendNotify()
	ep.emit(trace.MsgComplete, rs.key.seq, rs.total, 0)
	var arm func()
	arm = func() {
		rs.notifyTimer = ep.node.Eng.After(ep.cfg.RetransmitTimeout, func() {
			rs.notifyTries++
			if rs.notifyTries > maxRetries {
				delete(ep.rstates, rs.key)
				return
			}
			ep.node.stats.Retransmits++
			sendNotify()
			arm()
		})
	}
	arm()
	ep.complete(rs.matched, err)
}

// handleNotifyAck reaps a completed large receive.
func (ep *Endpoint) handleNotifyAck(m *notifyAck) {
	rs, ok := ep.rstates[msgKey{m.src, m.seq}]
	if !ok {
		return
	}
	rs.notifyTimer.Cancel()
	delete(ep.rstates, rs.key)
}
