package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"omxsim/internal/cluster"
	"omxsim/internal/core"
	"omxsim/internal/ethernet"
	"omxsim/internal/imb"
	"omxsim/internal/kv"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/report"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// A workload is one fixed input shape, run rep after rep. Rep i of a run
// uses seed base+i%detReps: the first detReps reps give the simulated
// metrics and the per-layer counts, and later reps replay the same seeds,
// so host timings keep measuring the same inputs however many reps fit in
// the run.
type workload struct {
	name    string
	why     string
	detReps int
	// newRep builds one rep for seed. spans, when non-nil, receives the
	// simulated-time spans of the workload's own rank bodies.
	newRep func(seed int64, spans *spanLog) *rep
	// cell is the op shape the layer cells replay for this workload.
	cell cellShape
}

// rep is one cluster's worth of work: its configuration, the rank body,
// and the step that reads the workload's results once the run is over.
type rep struct {
	cfg    cluster.Config
	body   func(c *mpi.Comm)
	finish func(cl *cluster.Cluster, o *outcome)
}

// transfer is payload moved in simulated time: one per message size for
// pingpong, one per run for kv.
type transfer struct{ bytes, ns float64 }

// kvCounts are the kv layer's operation counts.
type kvCounts struct{ issued, ok, rejected, errors, failovers int }

// outcome is what one rep's workload reports. Everything but problems is
// simulated, so it is a pure function of the seed.
type outcome struct {
	attempted, failed int
	// Operation latencies in simulated ns: pingpong times every message's
	// half round trip itself and keeps the exact values in latNs; kv hands
	// back HDR histograms of each GET's and PUT's time from its scheduled
	// arrival.
	latNs    []int64
	get, put report.Hist
	xfer     []transfer
	kv       kvCounts
	problems []string
}

// Workload shapes. The pingpong pair differs only in buffer lifetime, so
// pinning cost is the one variable between them; the kv pair differs in
// scale and in whether reclaim runs.
var workloads = []workload{
	pingpong("pingpong-reuse",
		"IMB PingPong 64KiB-16MiB with overlapped pinning and the cache, reusing buffers: cache hits bypass pinning, so host time is the data path",
		false),
	pingpong("pingpong-realloc",
		"the same PingPong, but every iteration frees and re-mallocs both buffers: MMU-notifier invalidations and fresh overlapped pins on every message",
		true),
	kvWorkload("kv-pressure",
		"2 servers and 2 open-loop Zipfian clients, server memory overcommitted by a churn hog: kswapd and direct reclaim run against pinned value heaps",
		60, kvPressureCluster, kvPressureConfig, cellShape{pinBytes: 64 << 10, policy: core.OnDemand}),
	kvWorkload("fleet-kv",
		"272-node replicated KV tier on 2 engine shards and 4-queue NICs: shard windows, cross-shard frames and fleet assembly, no reclaim",
		30, fleetCluster, fleetConfig, cellShape{pinBytes: 64 << 10, policy: core.OnDemand}),
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fleetLink is the 2µs switch hop of the kv fleets; it is also the shard
// lookahead.
func fleetLink() *ethernet.LinkConfig {
	l := ethernet.DefaultLinkConfig()
	l.PropDelay = 2 * sim.Microsecond
	return &l
}

// ppSizes is the Figure 6/7 rendezvous range at every other power of two.
var ppSizes = []int{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}

// ppDraw draws a rep's message sizes: each within 1/16 of its nominal
// size, in whole pages, so that the seed varies the pingpong's input as
// it varies the kv workloads' traffic.
func ppDraw(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, len(ppSizes))
	for i, nominal := range ppSizes {
		span := nominal / 16 / vm.PageSize
		sizes[i] = nominal + (rng.Intn(2*span+1)-span)*vm.PageSize
	}
	return sizes
}

// ppTag is the pingpong's MPI tag.
const ppTag = 1000

func pingpong(name, why string, realloc bool) workload {
	return workload{
		name:    name,
		why:     why,
		detReps: 16, // 16 reps x 76 round trips put 60 samples beyond p95
		cell:    cellShape{pinBytes: 1 << 20, freshPin: realloc, policy: core.Overlapped},
		newRep: func(seed int64, spans *spanLog) *rep {
			pp := &ppRun{seed: seed, realloc: realloc, spans: spans, sizes: ppDraw(seed),
				xfer: make([]transfer, len(ppSizes)), bad: make([]bool, len(ppSizes))}
			return &rep{
				cfg: cluster.Config{
					Nodes: 2,
					Seed:  seed,
					OMX:   omx.DefaultConfig(core.Overlapped, true),
				},
				body:   pp.rank,
				finish: func(_ *cluster.Cluster, o *outcome) { pp.report(o) },
			}
		},
	}
}

// ppRun is one pingpong rep's shared state. Both ranks live on one engine,
// whose processes run strictly one at a time, so they share it unlocked.
type ppRun struct {
	seed    int64
	realloc bool
	spans   *spanLog
	sizes   []int // this rep's draw of ppSizes

	latNs    []int64
	xfer     []transfer
	bad      []bool // per size: a payload check failed
	problems []string
}

// rank is the closed-loop PingPong body, with IMB's iteration count for
// each nominal size. Each size gets its own buffers at a seeded offset into
// their first page, as malloc'd application buffers rarely start on a page
// boundary.
func (pp *ppRun) rank(c *mpi.Comm) {
	me, peer := c.Rank(), 1-c.Rank()
	rng := rand.New(rand.NewSource(pp.seed<<1 | int64(me)))
	mine, theirs := basePage(pp.seed, me), basePage(pp.seed, peer)
	page := make([]byte, vm.PageSize)
	for si, size := range pp.sizes {
		iters := imb.Iterations(ppSizes[si])
		off := vm.Addr(rng.Intn(vm.PageSize/64) * 64)
		sbuf, rbuf := pp.alloc(c, size, off, mine, page)
		c.Barrier()
		start := c.Now()
		for i := 0; i < iters; i++ {
			if pp.realloc && i > 0 {
				c.Free(sbuf)
				c.Free(rbuf)
				sbuf, rbuf = pp.alloc(c, size, off, mine, page)
			}
			t0 := c.Now()
			if me == 0 {
				pp.send(c, sbuf+off, size, peer)
				pp.recv(c, rbuf+off, size, peer)
				pp.latNs = append(pp.latNs, int64(c.Now()-t0)/2)
			} else {
				pp.recv(c, rbuf+off, size, peer)
				pp.send(c, sbuf+off, size, peer)
			}
		}
		c.Barrier()
		if me == 0 {
			pp.xfer[si] = transfer{bytes: float64(2 * iters * size), ns: float64(c.Now() - start)}
		}
		if err := checkPayload(c, rbuf+off, size, theirs); err != nil {
			pp.bad[si] = true
			pp.problems = append(pp.problems, fmt.Sprintf("rank %d, %d B: %v", me, size, err))
		}
		c.Free(sbuf)
		c.Free(rbuf)
	}
}

func (pp *ppRun) send(c *mpi.Comm, a vm.Addr, size, peer int) {
	t0 := c.Now()
	c.Send(a, size, peer, ppTag)
	pp.spans.simSpan(c.Rank(), "Send", size, t0, c.Now())
}

func (pp *ppRun) recv(c *mpi.Comm, a vm.Addr, size, peer int) {
	t0 := c.Now()
	c.Recv(a, size, peer, ppTag)
	pp.spans.simSpan(c.Rank(), "Recv", size, t0, c.Now())
}

// alloc mallocs a send and a receive buffer with room for off and fills the
// send buffer with this rank's payload.
func (pp *ppRun) alloc(c *mpi.Comm, size int, off vm.Addr, base, page []byte) (sbuf, rbuf vm.Addr) {
	sbuf, rbuf = c.Malloc(size+int(off)), c.Malloc(size+int(off))
	for p := 0; p < size/vm.PageSize; p++ {
		fillPage(page, base, size, p)
		c.WriteBytes(sbuf+off+vm.Addr(p*vm.PageSize), page)
	}
	return sbuf, rbuf
}

func (pp *ppRun) report(o *outcome) {
	o.latNs = pp.latNs
	o.xfer = pp.xfer
	o.problems = pp.problems
	for si, nominal := range ppSizes {
		n := 2 * imb.Iterations(nominal)
		o.attempted += n
		if pp.bad[si] {
			o.failed += n
		}
	}
}

// basePage is the seeded page a rank's payload pages derive from.
func basePage(seed int64, rank int) []byte {
	b := make([]byte, vm.PageSize)
	rand.New(rand.NewSource(seed<<1 | int64(rank))).Read(b)
	return b
}

// fillPage writes page p of a size-byte payload: the sender's base page
// stamped with the size and page index, so a page that arrives misplaced,
// stale, or from another size fails the check.
func fillPage(dst, base []byte, size, p int) {
	copy(dst, base)
	binary.LittleEndian.PutUint64(dst, uint64(size)<<32|uint64(p))
}

// checkPayload compares the head and tail page of a received message with
// what the peer sent.
func checkPayload(c *mpi.Comm, a vm.Addr, size int, peerBase []byte) error {
	want := make([]byte, vm.PageSize)
	last := size/vm.PageSize - 1
	for _, p := range []int{0, last} {
		fillPage(want, peerBase, size, p)
		if got := c.ReadBytes(a+vm.Addr(p*vm.PageSize), vm.PageSize); !bytes.Equal(got, want) {
			return fmt.Errorf("payload page %d of %d differs from what the peer sent", p, last+1)
		}
	}
	return nil
}

// kvPressureCluster puts both servers on one node whose frame budget their
// value heaps plus the churn hog overcommit; the client node is unbounded.
func kvPressureCluster(seed int64) cluster.Config {
	return cluster.Config{
		Groups: []cluster.NodeGroup{
			{Name: "storage", Nodes: 1, RanksPerNode: 2, Mem: omx.MemConfig{Frames: 1536}},
			{Name: "clients", Nodes: 1, RanksPerNode: 2},
		},
		Link: fleetLink(),
		OMX:  omx.DefaultConfig(core.OnDemand, true),
		Seed: seed,
	}
}

var kvPressureConfig = kv.Config{
	Servers:     2,
	Keys:        48,
	ValueBytes:  64 << 10,
	Theta:       0.99,
	Workers:     4,
	ChurnBytes:  2 << 20,
	ChurnPeriod: 200 * sim.Microsecond,
	Tenants: []kv.Tenant{
		{Name: "t0", Ops: 140, Rate: 2000, GetFrac: 0.7, MaxInflight: 96},
	},
}

// fleetCluster mirrors examples/fleet-kv.yaml on two engine shards.
func fleetCluster(seed int64) cluster.Config {
	cfg := omx.DefaultConfig(core.OnDemand, true)
	cfg.RetransmitTimeout = 500 * sim.Microsecond
	cfg.PeerDeadTimeout = 10 * sim.Millisecond
	return cluster.Config{
		Groups: []cluster.NodeGroup{
			{Name: "storage", Nodes: 16, EndpointsPerNode: 2, NICQueues: 4},
			{Name: "clients", Nodes: 256},
		},
		Shards: 2,
		Link:   fleetLink(),
		OMX:    cfg,
		Seed:   seed,
	}
}

var fleetConfig = kv.Config{
	Servers:     16,
	Keys:        512,
	ValueBytes:  64 << 10,
	Theta:       0.99,
	Workers:     4,
	Replication: 2,
	Tenants: []kv.Tenant{
		{Name: "t0", Ops: 8, Rate: 600, GetFrac: 0.8, MaxInflight: 8},
		{Name: "t1", Ops: 6, Rate: 400, GetFrac: 0.5, MaxInflight: 8},
	},
}

func kvWorkload(name, why string, detReps int, clusterCfg func(int64) cluster.Config, cfg kv.Config, shape cellShape) workload {
	return workload{
		name:    name,
		why:     why,
		detReps: detReps,
		cell:    shape,
		newRep: func(seed int64, _ *spanLog) *rep {
			sink := &kvSink{stats: make(map[string]*kv.Stats)}
			return &rep{
				cfg:    clusterCfg(seed),
				body:   func(c *mpi.Comm) { kv.Run(c, sink, seed, cfg) },
				finish: func(cl *cluster.Cluster, o *outcome) { sink.report(cl, cfg, o) },
			}
		},
	}
}

// kvSink collects the ranks' stashed stats. Ranks on different shards
// stash concurrently.
type kvSink struct {
	mu    sync.Mutex
	stats map[string]*kv.Stats
	notes []string
}

func (s *kvSink) Stash(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := v.(*kv.Stats); ok {
		s.stats[key] = st
	}
}

func (s *kvSink) Note(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

func (s *kvSink) report(cl *cluster.Cluster, cfg kv.Config, o *outcome) {
	ranks := len(cl.Endpoints)
	m := kv.Collect(cfg, ranks, func(r int) *kv.Stats {
		st := s.stats[kv.StashKey(r)]
		if st == nil {
			o.problems = append(o.problems, fmt.Sprintf("kv: rank %d stashed no stats", r))
		}
		return st
	})
	var badVals int
	for _, t := range m.Tenants {
		o.kv.issued += t.Issued
		o.kv.ok += t.OK
		o.kv.rejected += t.Rejected
		o.kv.errors += t.Errors
		badVals += t.BadVals
	}
	o.kv.failovers = m.Failovers
	o.attempted = o.kv.issued
	o.failed = o.kv.rejected + o.kv.errors + badVals + m.ServerErrs
	if o.failed > o.attempted {
		o.failed = o.attempted
	}
	if badVals > 0 {
		o.problems = append(o.problems, fmt.Sprintf("kv: %d GET values failed validation", badVals))
	}
	if m.ServerErrs > 0 {
		o.problems = append(o.problems, fmt.Sprintf("kv: %d server-side errors", m.ServerErrs))
	}
	o.problems = append(o.problems, s.notes...)
	o.get.Merge(&m.Get)
	o.put.Merge(&m.Put)
	o.xfer = []transfer{{bytes: float64(o.kv.ok * cfg.ValueBytes), ns: float64(cl.Now())}}
}
