package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// ShardSet coordinates one or more engines (shards) under conservative
// parallel discrete-event synchronization. Each shard owns a disjoint
// slice of the simulated world (nodes of a cluster) and runs its own
// event queue, on its own goroutine when there are two or more; the only
// interaction between shards is cross-shard events posted through Post,
// which the coordinator delivers at window barriers. A one-engine set runs
// the same windows and barriers without a goroutine.
//
// The synchronization protocol is the classical conservative-lookahead
// window scheme: if every cross-shard interaction takes at least
// `lookahead` of simulated time to arrive (for an Ethernet fabric, the
// one-way link latency — a frame sent at t is never delivered before
// t+lookahead), then all shards can run a window [T, T+lookahead)
// concurrently without ever receiving an event in their past. At the end
// of each window the coordinator collects the events produced, sorts
// them into a canonical order, schedules them on their destination
// engines, and opens the next window at the new global minimum event
// time.
//
// Determinism. The same seed must produce the same per-node trace
// regardless of shard count or GOMAXPROCS. Two properties deliver that:
//
//  1. Window boundaries are shard-count invariant: each window starts at
//     the global minimum pending event time, which depends only on the
//     global event set — identical in every sharding.
//  2. Cross-shard events are delivered in a canonical order, never in
//     goroutine arrival order: each barrier sorts its batch by
//     (arrival time, destination node, send time, source node, source
//     sequence) before scheduling, so the (time, seq) order every engine
//     assigns to arrivals is a pure function of the simulation state.
//     Because consecutive windows are disjoint in time, batch k's send
//     times all precede batch k+1's, and arming batches in order keeps
//     same-instant arrivals from different windows in canonical order
//     too.
type ShardSet struct {
	lookahead Duration
	engines   []*Engine

	// outboxes[i] collects the cross events shard i posts during the
	// current window. Only shard i's goroutine appends during a window;
	// the coordinator drains between windows.
	outboxes [][]CrossEvent

	// windowEnd is the deadline of the window currently running; posted
	// events must arrive strictly after it (the lookahead invariant).
	windowEnd Time

	// barrierHooks run between windows, while every shard is parked, with
	// a happens-before edge to the next window.
	barrierHooks []func()

	workers []*shardWorker
	active  []int
}

// CrossEvent is one event crossing a shard boundary: Fn runs on the
// destination shard's engine at time When. The remaining fields order
// simultaneous arrivals canonically (see the determinism notes above).
type CrossEvent struct {
	// When is the arrival time; it must be at least lookahead after the
	// time it was posted at.
	When Time
	// SendTime is when the source shard posted the event.
	SendTime Time
	// SrcShard and DstShard address the shards; SrcNode and DstNode the
	// simulated nodes (the finer tie-break key).
	SrcShard, DstShard int
	SrcNode, DstNode   int
	// SrcSeq is a per-source-node monotonic sequence number, unique among
	// events with equal (When, DstNode, SendTime, SrcNode).
	SrcSeq uint64
	Fn     func()
}

// NewShardSet builds a coordinator over the given engines. The lookahead
// must be positive: it is the guaranteed minimum delay of every cross-
// shard event, and a zero window would serialize the shards event by
// event.
func NewShardSet(lookahead Duration, engines []*Engine) *ShardSet {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive shard lookahead %d", lookahead))
	}
	if len(engines) == 0 {
		panic("sim: shard set needs at least one engine")
	}
	return &ShardSet{
		lookahead: lookahead,
		engines:   engines,
		outboxes:  make([][]CrossEvent, len(engines)),
		windowEnd: -1,
	}
}

// NumShards reports the number of engines in the set.
func (ss *ShardSet) NumShards() int { return len(ss.engines) }

// Engine returns shard i's engine.
func (ss *ShardSet) Engine(i int) *Engine { return ss.engines[i] }

// AddBarrierHook registers fn to run at every window barrier (and once
// before the first window), on the coordinator goroutine while all
// shards are parked. Hooks publish state; they must not schedule events.
func (ss *ShardSet) AddBarrierHook(fn func()) {
	ss.barrierHooks = append(ss.barrierHooks, fn)
}

// Post queues a cross-shard event for delivery at the next barrier. It
// must be called from ev.SrcShard's goroutine (during that shard's
// window) and ev.When must respect the lookahead invariant: an event may
// never arrive inside the window that produced it.
func (ss *ShardSet) Post(ev CrossEvent) {
	if ev.When <= ss.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard event at %v violates lookahead window ending %v",
			ev.When, ss.windowEnd))
	}
	ss.outboxes[ev.SrcShard] = append(ss.outboxes[ev.SrcShard], ev)
}

// LastForegroundTime reports when the last non-daemon event fired across
// all shards — the windowed-run equivalent of Engine.Now() after a
// drained Run.
func (ss *ShardSet) LastForegroundTime() Time {
	var last Time
	for _, e := range ss.engines {
		if t := e.LastForegroundTime(); t > last {
			last = t
		}
	}
	return last
}

// EventsFired sums the events dispatched across all shards.
func (ss *ShardSet) EventsFired() uint64 {
	var n uint64
	for _, e := range ss.engines {
		n += e.EventsFired()
	}
	return n
}

// ForegroundEventsFired sums the non-daemon events dispatched across all
// shards — the shard-layout-invariant event count (daemon ticks run up to
// each layout's final window boundary, so their totals differ).
func (ss *ShardSet) ForegroundEventsFired() uint64 {
	var n uint64
	for _, e := range ss.engines {
		n += e.ForegroundEventsFired()
	}
	return n
}

// foregroundPending sums the live non-daemon events across shards.
func (ss *ShardSet) foregroundPending() int {
	n := 0
	for _, e := range ss.engines {
		n += e.ForegroundPending()
	}
	return n
}

// nextTime reports the earliest pending event time across shards.
func (ss *ShardSet) nextTime() (Time, bool) {
	best, ok := Time(0), false
	for _, e := range ss.engines {
		if t, has := e.nextTime(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Run drives all shards until no foreground work remains anywhere (the
// parallel equivalent of Engine.Run on every shard).
func (ss *ShardSet) Run() { ss.run(maxTime) }

// RunUntil drives all shards until no foreground work remains or the
// deadline is reached, then advances every shard's clock to the deadline
// (the parallel equivalent of Engine.RunUntil).
func (ss *ShardSet) RunUntil(deadline Time) { ss.run(deadline) }

// run is the coordinator loop: deliver, barrier, pick window, execute.
// Every window is anchored at the global minimum pending event time and
// extends one lookahead (clamped to the deadline) — never wider, so the
// lookahead invariant holds for every event fired inside it, daemon work
// included.
func (ss *ShardSet) run(deadline Time) {
	ss.startWorkers()
	defer ss.stopWorkers()
	for {
		ss.deliver()
		ss.runHooks()
		next, ok := ss.nextTime()
		if deadline == maxTime && (!ok || ss.foregroundPending() == 0) {
			// Unbounded runs stop like Engine.Run: when only daemon work
			// remains. (A daemon may revive foreground work mid-window —
			// e.g. kswapd completing a stalled allocation — which keeps
			// the loop going, exactly as a single engine would.)
			return
		}
		if !ok || next > deadline {
			// Bounded runs mirror Engine.RunUntil: daemons fire through
			// the whole budget and every clock ends at the deadline
			// (forceAll: even shards with nothing left must advance).
			ss.runWindow(deadline, true)
			ss.deliver()
			ss.runHooks()
			return
		}
		ss.runWindow(min(next+ss.lookahead-1, deadline), false)
	}
}

// runHooks runs the barrier hooks.
func (ss *ShardSet) runHooks() {
	for _, h := range ss.barrierHooks {
		h()
	}
}

// deliver drains the outboxes into the destination engines in canonical
// order. It runs between windows, when no shard goroutine is active, so
// shard 0's outbox can double as the merge buffer.
func (ss *ShardSet) deliver() {
	batch := ss.outboxes[0]
	for i, out := range ss.outboxes[1:] {
		batch = append(batch, out...)
		clear(out)
		ss.outboxes[i+1] = out[:0]
	}
	if len(batch) > 1 {
		slices.SortFunc(batch, func(a, b CrossEvent) int {
			return cmp.Or(
				cmp.Compare(a.When, b.When),
				cmp.Compare(a.DstNode, b.DstNode),
				cmp.Compare(a.SendTime, b.SendTime),
				cmp.Compare(a.SrcNode, b.SrcNode),
				cmp.Compare(a.SrcSeq, b.SrcSeq),
			)
		})
	}
	for i := range batch {
		ss.engines[batch[i].DstShard].At(batch[i].When, batch[i].Fn)
	}
	clear(batch)
	ss.outboxes[0] = batch[:0]
}

// runWindow executes one window ending at end. Only the shards that have
// an event inside the window run — an idle shard's clock simply stays
// behind until it next has work (cross-shard arming validates against
// windowEnd, never an engine clock, so a lagging clock is unobservable).
// forceAll overrides the skip for the bounded-run clock bump, where every
// shard must end at the deadline. A single active shard — always the case
// in a one-engine set — runs on the coordinator goroutine, sparing the
// channel round trip; two or more run concurrently on their workers.
func (ss *ShardSet) runWindow(end Time, forceAll bool) {
	ss.windowEnd = end
	active := ss.active[:0]
	for i, e := range ss.engines {
		if next, has := e.nextTime(); forceAll || has && next <= end {
			active = append(active, i)
		}
	}
	ss.active = active
	if len(active) == 1 {
		ss.engines[active[0]].RunUntil(end)
		return
	}
	for _, i := range active {
		ss.workers[i].start <- end
	}
	var failure any
	for _, i := range active {
		if r := <-ss.workers[i].done; r != nil && failure == nil {
			failure = r
		}
	}
	if failure != nil {
		panic(failure)
	}
}

// shardWorker is one shard's persistent window-execution goroutine. A
// panic inside a window (protocol bug, simulation invariant) is captured
// and re-raised on the coordinator goroutine after the barrier, so it
// surfaces on the caller of Run like a single-engine panic would.
type shardWorker struct {
	eng   *Engine
	start chan Time
	done  chan any
}

func (ss *ShardSet) startWorkers() {
	if len(ss.engines) == 1 || ss.workers != nil {
		return
	}
	for _, e := range ss.engines {
		w := &shardWorker{eng: e, start: make(chan Time), done: make(chan any)}
		ss.workers = append(ss.workers, w)
		go func(w *shardWorker) {
			for end := range w.start {
				w.done <- w.runOne(end)
			}
		}(w)
	}
}

func (w *shardWorker) runOne(end Time) (failure any) {
	defer func() {
		if r := recover(); r != nil {
			failure = r
		}
	}()
	w.eng.RunUntil(end)
	return nil
}

func (ss *ShardSet) stopWorkers() {
	for _, w := range ss.workers {
		close(w.start)
	}
	ss.workers = nil
}
