package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ShardSet coordinates one or more engines (shards) under conservative
// parallel discrete-event synchronization. Each shard owns a disjoint
// slice of the simulated world (nodes of a cluster) and runs its own
// event queue; the only interaction between shards is cross-shard events
// posted through Post, which the coordinator delivers at window barriers.
// In a window where two or more shards have work, the coordinator runs
// the first of them itself and the rest run concurrently on one worker
// goroutine each. A one-engine set runs the same windows and barriers
// without a worker.
//
// The synchronization protocol is the classical conservative-lookahead
// window scheme: if every cross-shard interaction takes at least
// `lookahead` of simulated time to arrive (for an Ethernet fabric, the
// shortest send-to-handler latency of any frame — a frame sent at t is
// never handled before t+lookahead), then all shards can run a window
// [T, T+lookahead) concurrently without ever receiving an event in their
// past. At the end of each window the coordinator collects the events
// produced, sorts them into a canonical order, schedules them on their
// destination engines, and opens the next window at the new global
// minimum event time.
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
	// current window. Only the goroutine running shard i appends during a
	// window; the coordinator drains between windows.
	outboxes [][]CrossEvent

	// windowEnd is the deadline of the window currently running; posted
	// events must arrive strictly after it (the lookahead invariant).
	windowEnd Time

	// barrierHooks run between windows, while no shard is running, with
	// a happens-before edge to the next window.
	barrierHooks []func()

	// workers[i] runs shard i's windows for i >= 1 while a run is in
	// progress; running counts the worker goroutines still alive.
	workers []*shardWorker
	running sync.WaitGroup
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

// Lookahead reports the window width: the minimum delay of every cross-
// shard event.
func (ss *ShardSet) Lookahead() Duration { return ss.lookahead }

// NarrowLookahead shrinks the window width to d, which must be positive
// and no wider than the current one: a narrower window stays conservative,
// a wider one could not. Results do not depend on the width, so a test can
// narrow it to check exactly that. Call it before the run starts.
func (ss *ShardSet) NarrowLookahead(d Duration) {
	if d <= 0 || d > ss.lookahead {
		panic(fmt.Sprintf("sim: cannot narrow shard lookahead %d to %d", ss.lookahead, d))
	}
	ss.lookahead = d
}

// NumShards reports the number of engines in the set.
func (ss *ShardSet) NumShards() int { return len(ss.engines) }

// Engine returns shard i's engine.
func (ss *ShardSet) Engine(i int) *Engine { return ss.engines[i] }

// AddBarrierHook registers fn to run at every window barrier (and once
// before the first window), on the coordinator goroutine while no shard is
// running. Hooks publish state; they must not schedule events.
func (ss *ShardSet) AddBarrierHook(fn func()) {
	ss.barrierHooks = append(ss.barrierHooks, fn)
}

// Post queues a cross-shard event for delivery at the next barrier. It
// must be called from the goroutine running ev.SrcShard (during that
// shard's window) and ev.When must respect the lookahead invariant: an
// event may never arrive inside the window that produced it.
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
// shard must end at the deadline. The first active shard — the only one
// in a one-engine set — runs on the coordinator goroutine; the rest run
// concurrently on their workers. A panic in any of them is re-raised here
// once every worker has finished the window, so no worker is mid-window
// when it reaches the caller of Run.
func (ss *ShardSet) runWindow(end Time, forceAll bool) {
	ss.windowEnd = end
	active := ss.active[:0]
	for i, e := range ss.engines {
		if next, has := e.nextTime(); forceAll || has && next <= end {
			active = append(active, i)
		}
	}
	ss.active = active
	first, rest := active[0], active[1:]
	if len(rest) == 0 {
		ss.engines[first].RunUntil(end)
		return
	}
	for _, i := range rest {
		ss.workers[i].begin(end)
	}
	failure := runShard(ss.engines[first], end)
	for _, i := range rest {
		if r := ss.workers[i].finish(); r != nil && failure == nil {
			failure = r
		}
	}
	if failure != nil {
		panic(failure)
	}
}

// runShard runs one shard's window and returns the value of any panic in
// it.
func runShard(e *Engine, end Time) (failure any) {
	defer func() { failure = recover() }()
	e.RunUntil(end)
	return nil
}

// spinPolls bounds how many times a side of a window barrier polls before
// it parks. Each poll yields the processor, so the bound comes to tens of
// microseconds of host time: long enough to outlast a typical fleet
// window, so with a processor free for each side a barrier completes
// without parking, and short enough that a side left waiting soon stops
// taking a processor from the rest.
const spinPolls = 256

// gate hands one goroutine's progress to another: the signaller advances
// an epoch, and the waiter waits until the epoch reaches the one it
// expects, polling for a bounded number of times before it parks. The low
// bit of state records a parked waiter; the signaller's swap clears it
// and wakes the waiter only then, so neither side can miss the other.
type gate struct {
	state atomic.Uint64 // epoch<<1 | parked
	wake  chan struct{} // one token per parked wait; buffered 1
}

// signal advances the gate to epoch, waking the waiter if it parked.
func (g *gate) signal(epoch uint64) {
	if g.state.Swap(epoch<<1)&1 != 0 {
		g.wake <- struct{}{}
	}
}

// wait returns once the gate reaches epoch, which must be one past its
// current epoch. It polls up to spin times, then parks.
func (g *gate) wait(epoch uint64, spin int) {
	for range spin {
		if g.state.Load()>>1 == epoch {
			return
		}
		runtime.Gosched()
	}
	if prev := (epoch - 1) << 1; g.state.CompareAndSwap(prev, prev|1) {
		<-g.wake
	}
}

// shardWorker is one shard's persistent window-execution goroutine. The
// coordinator hands it a window through start and waits for it through
// done; both count the windows handed out so far.
type shardWorker struct {
	eng     *Engine
	spin    int
	windows uint64
	// end and failure pass a window's deadline to the worker and its
	// panic back; the gates order each write before the other side's read.
	end         Time
	failure     any
	start, done gate
}

// begin hands the worker the window ending at end.
func (w *shardWorker) begin(end Time) {
	w.end = end
	w.windows++
	w.start.signal(w.windows)
}

// finish waits for the worker's window and returns its panic, if any.
func (w *shardWorker) finish() any {
	w.done.wait(w.windows, w.spin)
	return w.failure
}

// loop runs windows until it is handed the stop deadline.
func (w *shardWorker) loop() {
	for n := uint64(1); ; n++ {
		w.start.wait(n, w.spin)
		if w.end == stopWorker {
			return
		}
		w.failure = runShard(w.eng, w.end)
		w.done.signal(n)
	}
}

// stopWorker is the deadline that tells a worker to exit.
const stopWorker = Time(-1)

// startWorkers starts a worker for every shard but the first, which only
// ever runs on the coordinator (it is the first active shard whenever it
// is active). Both sides of a barrier spin only when there is a second
// processor to run the other side meanwhile.
func (ss *ShardSet) startWorkers() {
	if len(ss.engines) == 1 {
		return
	}
	spin := 0
	if runtime.GOMAXPROCS(0) > 1 {
		spin = spinPolls
	}
	ss.workers = make([]*shardWorker, len(ss.engines))
	for i, e := range ss.engines[1:] {
		w := &shardWorker{eng: e, spin: spin}
		w.start.wake = make(chan struct{}, 1)
		w.done.wake = make(chan struct{}, 1)
		ss.workers[i+1] = w
		ss.running.Add(1)
		go func() {
			defer ss.running.Done()
			w.loop()
		}()
	}
}

// stopWorkers stops every worker and returns once all have exited.
func (ss *ShardSet) stopWorkers() {
	for _, w := range ss.workers {
		if w != nil {
			w.begin(stopWorker)
		}
	}
	ss.running.Wait()
	ss.workers = nil
}
