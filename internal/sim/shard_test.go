package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardSetValidation covers the constructor's argument checks.
func TestShardSetValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no engines", func() { NewShardSet(10, nil) })
	mustPanic("zero lookahead", func() { NewShardSet(0, []*Engine{NewEngine(1)}) })
}

// nodeSet is a shard set over simulated nodes, block-distributed on its
// engines: a one-engine set runs its windows on the coordinator goroutine,
// a two-engine set on worker goroutines when both shards have work.
type nodeSet struct {
	ss    *ShardSet
	nodes []*Engine // nodes[i] is node i's engine
	shard []int     // shard[i] is node i's shard
}

func newNodeSet(lookahead Duration, engines, nodes int) *nodeSet {
	es := make([]*Engine, engines)
	for i := range es {
		es[i] = NewEngine(1)
	}
	ns := &nodeSet{ss: NewShardSet(lookahead, es)}
	for n := 0; n < nodes; n++ {
		s := n * engines / nodes
		ns.shard = append(ns.shard, s)
		ns.nodes = append(ns.nodes, es[s])
	}
	return ns
}

// post sends fn from node src to node dst, arriving at when.
func (ns *nodeSet) post(src, dst int, when Time, seq uint64, fn func()) {
	ns.ss.Post(CrossEvent{
		When: when, SendTime: ns.nodes[src].Now(),
		SrcShard: ns.shard[src], DstShard: ns.shard[dst],
		SrcNode: src, DstNode: dst, SrcSeq: seq,
		Fn: fn,
	})
}

// forShardCounts runs fn as one subtest per engine count.
func forShardCounts(t *testing.T, fn func(t *testing.T, engines int)) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, n) })
	}
}

// TestProcPanicReachesRunCaller: a panic inside a simulated process must
// unwind to the caller of Run — on a lone engine, from the shard a
// two-engine set's coordinator runs inline, and through the worker of the
// other shard, whose recover hands it to the coordinator — so a crashed
// simulation can be recovered instead of killing the program.
func TestProcPanicReachesRunCaller(t *testing.T) {
	caught := func(run func()) (r any) {
		defer func() { r = recover() }()
		run()
		return nil
	}
	boom := func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	}

	e := NewEngine(1)
	e.Go("boom", boom)
	if r := caught(e.Run); r != "boom" {
		t.Errorf("one engine: recovered %v, want boom", r)
	}

	// Both engines have work in the first window, so shard 0 runs it
	// inline on the coordinator and shard 1 on its worker.
	for bad := range 2 {
		es := []*Engine{NewEngine(1), NewEngine(1)}
		ss := NewShardSet(100, es)
		es[bad].Go("boom", boom)
		es[1-bad].Go("idle", func(p *Proc) { p.Sleep(10) })
		if r := caught(ss.Run); r != "boom" {
			t.Errorf("two-engine set, panic on shard %d: recovered %v, want boom", bad, r)
		}
	}
}

// TestShardSetPanicWaitsForWorkers: a panic on one shard reaches the
// caller of Run only once every other shard has finished the window, so
// no worker is still touching simulation state when the caller recovers.
// The panicking shard lets the other one into its window, then panics
// while it is still running.
func TestShardSetPanicWaitsForWorkers(t *testing.T) {
	for bad := range 2 {
		es := []*Engine{NewEngine(1), NewEngine(1)}
		ss := NewShardSet(100, es)
		entered, release := make(chan struct{}), make(chan struct{})
		var finished atomic.Bool
		es[1-bad].At(10, func() {
			close(entered)
			<-release
			time.Sleep(20 * time.Millisecond)
			finished.Store(true)
		})
		es[bad].At(10, func() {
			<-entered
			close(release)
			panic("boom")
		})
		r := func() (r any) {
			defer func() { r = recover() }()
			ss.Run()
			return nil
		}()
		if r != "boom" {
			t.Errorf("panic on shard %d: recovered %v, want boom", bad, r)
		}
		if !finished.Load() {
			t.Errorf("panic on shard %d reached the caller while shard %d was mid-window", bad, 1-bad)
		}
	}
}

// TestShardSetWorkersExit: no worker goroutine outlives Run, whether it
// returns or panics.
func TestShardSetWorkersExit(t *testing.T) {
	for _, fail := range []bool{false, true} {
		es := []*Engine{NewEngine(1), NewEngine(1), NewEngine(1)}
		ss := NewShardSet(100, es)
		for i, e := range es {
			e.At(Time(10*i), func() {
				if fail && i == 2 {
					panic("boom")
				}
			})
		}
		func() {
			defer func() {
				if r := recover(); (r != nil) != fail {
					t.Errorf("fail=%v: recovered %v", fail, r)
				}
			}()
			ss.Run()
		}()
		// Run has waited for every worker to leave its loop; give the
		// goroutines the moment they need to return from it.
		deadline := time.Now().Add(5 * time.Second)
		for workerGoroutines() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("fail=%v: %d worker goroutines still alive after Run", fail, workerGoroutines())
			}
			runtime.Gosched()
		}
	}
}

// workerGoroutines counts the goroutines running a shard worker's loop.
func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*shardWorker).loop")
}

// TestShardSetBarrierParks is the barrier's lost-wakeup stress test: three
// shards run a few thousand windows in which, now and then, a shard or a
// barrier hook sleeps on the host for longer than a side spins, so both
// the coordinator and the workers park and are woken. At GOMAXPROCS 1
// neither side spins. Every window's events must run, and each shard's
// trace must be the serial one.
func TestShardSetBarrierParks(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const L, windows = Duration(100), 2000
			ns := newNodeSet(L, 3, 3)
			rng := rand.New(rand.NewSource(int64(procs)))
			// Which windows sleep is drawn up front: the shards must not
			// share an RNG while they run.
			nap := make([][]bool, 3)
			for n := range nap {
				nap[n] = make([]bool, windows)
				for w := range nap[n] {
					nap[n][w] = rng.Intn(16) == 0
				}
			}
			hookNaps := 0
			ns.ss.AddBarrierHook(func() {
				if hookNaps++; hookNaps%16 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
			})
			got := make([][]Time, 3)
			for n := range 3 {
				dst := (n + 1) % 3
				var tick func(w int)
				tick = func(w int) {
					if nap[n][w] {
						time.Sleep(200 * time.Microsecond)
					}
					if w+1 < windows {
						ns.post(n, dst, ns.nodes[n].Now()+L, uint64(w), func() {
							got[dst] = append(got[dst], ns.nodes[dst].Now())
						})
						ns.nodes[n].After(L, func() { tick(w + 1) })
					}
				}
				ns.nodes[n].At(0, func() { tick(0) })
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				ns.ss.Run()
			}()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatal("shard set hung: a barrier lost its wakeup")
			}
			for n, times := range got {
				if len(times) != windows-1 {
					t.Fatalf("node %d received %d messages, want %d", n, len(times), windows-1)
				}
				for w, at := range times {
					if want := Time(w+1) * L; at != want {
						t.Fatalf("node %d message %d arrived at %d, want %d", n, w, at, want)
					}
				}
			}
		})
	}
}

// TestShardSetPingPong bounces a "message" between two nodes: each hop
// posts a cross event one lookahead ahead of the sender's clock. The run
// must drain, visit both nodes alternately, and advance time by exactly
// one lookahead per hop.
func TestShardSetPingPong(t *testing.T) {
	forShardCounts(t, func(t *testing.T, engines int) {
		const L = Duration(100)
		const hops = 50
		ns := newNodeSet(L, engines, 2)

		var times []Time
		var hop func(node int)
		hop = func(node int) {
			now := ns.nodes[node].Now()
			times = append(times, now)
			if len(times) >= hops {
				return
			}
			next := 1 - node
			ns.post(node, next, now+L, 0, func() { hop(next) })
		}
		ns.nodes[0].At(10, func() { hop(0) })
		ns.ss.Run()

		if len(times) != hops {
			t.Fatalf("got %d hops, want %d", len(times), hops)
		}
		for i, got := range times {
			if want := Time(10) + Time(i)*L; got != want {
				t.Fatalf("hop %d at t=%d, want %d", i, got, want)
			}
		}
		if got := ns.ss.LastForegroundTime(); got != times[hops-1] {
			t.Errorf("LastForegroundTime = %d, want %d", got, times[hops-1])
		}
		if got := ns.ss.EventsFired(); got != hops {
			t.Errorf("EventsFired = %d, want %d", got, hops)
		}
	})
}

// TestShardSetMergeOrder posts same-instant cross events in scrambled
// call order and checks delivery follows the canonical
// (When, DstNode, SendTime, SrcNode, SrcSeq) sort — the tie-break that
// makes sharded traces independent of outbox arrival order.
func TestShardSetMergeOrder(t *testing.T) {
	forShardCounts(t, func(t *testing.T, engines int) {
		const L = Duration(100)
		ns := newNodeSet(L, engines, 2)
		a, dstShard := ns.nodes[0], ns.shard[1]

		var got []string
		post := func(when Time, dstNode int, sendTime Time, srcNode int, seq uint64) {
			tag := fmt.Sprintf("dst%d/st%d/src%d/seq%d", dstNode, sendTime, srcNode, seq)
			ns.ss.Post(CrossEvent{
				When: when, SendTime: sendTime,
				SrcShard: 0, DstShard: dstShard,
				SrcNode: srcNode, DstNode: dstNode, SrcSeq: seq,
				Fn: func() { got = append(got, tag) },
			})
		}
		a.At(5, func() {
			when := a.Now() + L
			// Scrambled: canonical order is dst0/seq1, dst0/seq2, dst2/st3,
			// dst2/st4/src0, dst2/st4/src1.
			post(when, 2, 4, 1, 9)
			post(when, 0, 3, 0, 2)
			post(when, 2, 4, 0, 7)
			post(when, 0, 3, 0, 1)
			post(when, 2, 3, 5, 1)
		})
		ns.ss.Run()

		want := []string{
			"dst0/st3/src0/seq1",
			"dst0/st3/src0/seq2",
			"dst2/st3/src5/seq1",
			"dst2/st4/src0/seq7",
			"dst2/st4/src1/seq9",
		}
		if !slices.Equal(got, want) {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	})
}

// TestCompareCrossMatchesKeyTuple sorts shuffled barrier batches whose
// keys tie often on the leading fields (a few arrival times, nodes and
// send times) with compareCross, and checks the order against a
// comparison of the whole (When, DstNode, SendTime, SrcNode, SrcSeq)
// tuple at once.
func TestCompareCrossMatchesKeyTuple(t *testing.T) {
	tuple := func(a, b CrossEvent) int {
		return cmp.Or(
			cmp.Compare(a.When, b.When),
			cmp.Compare(a.DstNode, b.DstNode),
			cmp.Compare(a.SendTime, b.SendTime),
			cmp.Compare(a.SrcNode, b.SrcNode),
			cmp.Compare(a.SrcSeq, b.SrcSeq),
		)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		batch := make([]CrossEvent, 1+rng.Intn(300))
		for i := range batch {
			batch[i] = CrossEvent{
				When:     Time(100 + rng.Intn(3)),
				DstNode:  rng.Intn(3),
				SendTime: Time(rng.Intn(3)),
				SrcNode:  rng.Intn(3),
				SrcSeq:   uint64(i), // unique: the order is total
			}
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		want := slices.Clone(batch)
		slices.SortFunc(want, tuple)
		slices.SortFunc(batch, compareCross)
		for i := range batch {
			if tuple(batch[i], want[i]) != 0 {
				t.Fatalf("trial %d: event %d is %+v, want %+v", trial, i, batch[i], want[i])
			}
		}
	}
}

// TestShardSetLookaheadViolation checks that posting an event inside the
// current window — a conservative-synchronization bug — panics rather
// than silently delivering late.
func TestShardSetLookaheadViolation(t *testing.T) {
	forShardCounts(t, func(t *testing.T, engines int) {
		ns := newNodeSet(100, engines, 2)
		a := ns.nodes[0]
		a.At(10, func() {
			// When == now is inside the window the poster is running in.
			ns.post(0, 1, a.Now(), 0, func() {})
		})
		defer func() {
			if recover() == nil {
				t.Fatal("expected lookahead-violation panic")
			}
		}()
		ns.ss.Run()
	})
}

// TestShardSetRunUntil checks bounded runs: daemons keep firing through
// the budget, and every shard clock ends exactly at the deadline.
func TestShardSetRunUntil(t *testing.T) {
	forShardCounts(t, func(t *testing.T, engines int) {
		ns := newNodeSet(100, engines, 2)
		ticksA, ticksB := 0, 0
		ns.nodes[0].Every(30, func() { ticksA++ })
		ns.nodes[1].Every(70, func() { ticksB++ })
		ns.ss.RunUntil(2100)
		for i := 0; i < ns.ss.NumShards(); i++ {
			if now := ns.ss.Engine(i).Now(); now != 2100 {
				t.Fatalf("shard %d clock at %d, want 2100", i, now)
			}
		}
		if want := 2100 / 30; ticksA != want {
			t.Errorf("node 0 daemon ticked %d times, want %d", ticksA, want)
		}
		if want := 2100 / 70; ticksB != want {
			t.Errorf("node 1 daemon ticked %d times, want %d", ticksB, want)
		}
	})
}

// TestShardSetDaemonDoesNotBlockDrain checks the unbounded-run exit
// condition: a recurring daemon alone (no foreground work left) must not
// keep the shard set spinning.
func TestShardSetDaemonDoesNotBlockDrain(t *testing.T) {
	forShardCounts(t, func(t *testing.T, engines int) {
		ns := newNodeSet(100, engines, 2)
		ns.nodes[0].Every(10, func() {})
		fired := false
		ns.nodes[1].At(500, func() { fired = true })
		done := make(chan struct{})
		go func() { ns.ss.Run(); close(done) }()
		<-done
		if !fired {
			t.Fatal("foreground event never fired")
		}
	})
}

// TestShardSetBarrierHook checks hooks run at every synchronization
// barrier: once before the first window and once after each window.
func TestShardSetBarrierHook(t *testing.T) {
	forShardCounts(t, func(t *testing.T, engines int) {
		const L = Duration(100)
		ns := newNodeSet(L, engines, 2)
		calls := 0
		ns.ss.AddBarrierHook(func() { calls++ })
		a := ns.nodes[0]
		a.At(10, func() { ns.post(0, 1, a.Now()+L, 0, func() {}) })
		ns.ss.Run()
		// Windows [10,109] and [110,209].
		if calls != 3 {
			t.Fatalf("barrier hook ran %d times, want 3", calls)
		}
	})
}

// TestShardSetRandomWorkload drives a seeded random mix of local events,
// same-instant ties, daemon ticks and cross-node messages through four
// nodes, unbounded and bounded. The one-engine set must reproduce the
// two-engine coordinator exactly: the same per-node trace, the same event
// count and the same barriers.
func TestShardSetRandomWorkload(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, budget := range []Time{0, 3_000, 40_000} {
			one := randomWorkload(1, seed, budget)
			two := randomWorkload(2, seed, budget)
			if one.events == 0 || one.windows < 10 {
				t.Fatalf("seed %d: degenerate workload (%d events, %d windows)", seed, one.events, one.windows)
			}
			if one.events != two.events || one.windows != two.windows {
				t.Errorf("seed %d budget %d: 1 shard fired %d events over %d barriers, 2 shards %d over %d",
					seed, budget, one.events, one.windows, two.events, two.windows)
			}
			for n := range one.trace {
				if !slices.Equal(one.trace[n], two.trace[n]) {
					t.Errorf("seed %d budget %d: node %d trace differs\n 1 shard: %v\n2 shards: %v",
						seed, budget, n, one.trace[n], two.trace[n])
				}
			}
		}
	}
}

type workloadResult struct {
	trace   [][]string
	events  uint64
	windows int
}

// randomWorkload runs the random mix on the given engine count; budget 0
// runs until the foreground work drains.
func randomWorkload(engines int, seed int64, budget Time) workloadResult {
	const nodes, L = 4, Duration(250)
	ns := newNodeSet(L, engines, nodes)
	res := workloadResult{trace: make([][]string, nodes)}
	ns.ss.AddBarrierHook(func() { res.windows++ })
	// Each node draws from its own stream, in its own event order, so its
	// choices do not depend on which engine it shares.
	var rngs [nodes]*rand.Rand
	var seqs [nodes]uint64
	var act func(node, depth int, tag string)
	act = func(node, depth int, tag string) {
		e, rng := ns.nodes[node], rngs[node]
		res.trace[node] = append(res.trace[node], fmt.Sprintf("%d:%s", e.Now(), tag))
		if depth == 0 {
			return
		}
		for i := rng.Intn(3); i >= 0; i-- {
			child := fmt.Sprintf("%s.%d", tag, i)
			switch k := rng.Intn(4); k {
			case 0, 1: // a local event, often at this very instant
				d := Duration(0)
				if k == 1 {
					d = Duration(rng.Intn(400))
				}
				e.After(d, func() { act(node, depth-1, child) })
			default: // a message to any node, at least one lookahead out
				dst := rng.Intn(nodes)
				seqs[node]++
				when := e.Now() + L + Duration(rng.Intn(3))*L/2
				ns.post(node, dst, when, seqs[node], func() { act(dst, depth-1, child) })
			}
		}
	}
	for n := 0; n < nodes; n++ {
		rngs[n] = rand.New(rand.NewSource(seed*100 + int64(n)))
		ns.nodes[n].At(Time(rngs[n].Intn(1000)), func() { act(n, 8, fmt.Sprintf("n%d", n)) })
		ticks := 0
		ns.nodes[n].Every(Duration(700+100*n), func() {
			ticks++
			res.trace[n] = append(res.trace[n], fmt.Sprintf("%d:tick%d", ns.nodes[n].Now(), ticks))
		})
	}
	if budget > 0 {
		ns.ss.RunUntil(budget)
	} else {
		ns.ss.Run()
	}
	res.events = ns.ss.EventsFired()
	return res
}
