package main

import (
	"fmt"
	"runtime"
	"time"

	"omxsim/internal/cluster"
	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// cellShape is the op shape a workload's layer cells replay.
type cellShape struct {
	pinBytes int            // region size the vm and core cells pin and look up
	freshPin bool           // pin freshly mapped memory each time (buffer churn)
	policy   core.PinPolicy // pinning policy of the omx pull-window cell
}

// A cell times calls into one layer's public functions from outside, in
// host ns per op. Each does a fixed amount of work, tens of milliseconds.
var cells = []struct {
	name string
	run  func(cellShape) float64
}{
	{"vm.pin_ns_per_page", cellVMPin},
	{"vm.reclaim_ns_per_page", cellReclaim},
	{"core.cache_hit_ns", cellCacheHit},
	{"core.cache_miss_ns", cellCacheMiss},
	{"core.pin_chunk_ns", cellPinChunk},
	{"omx.pull_window_ns", cellPullWindow},
	{"ethernet.frame_ns", cellFrame},
	{"sim.barrier_ns", cellBarrier},
}

func runCells(shape cellShape, spans *spanLog) map[string]float64 {
	out := make(map[string]float64, len(cells))
	for _, c := range cells {
		runtime.GC()
		t0 := time.Now()
		out[c.name] = c.run(shape)
		spans.host("cell "+c.name, t0)
	}
	return out
}

// must fails a cell on an error only a simulator bug can produce: every
// cell drives the layer with inputs it accepts.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("omxbench cell: %v", err))
	}
}

func nsPer(t0 time.Time, n int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// cellPages is how many pages the pin cells pin in total.
const cellPages = 1 << 17

// cellVMPin pins and unpins a buffer of the workload's size, freshly
// mapped each time under churn, so the pin also faults the pages in.
func cellVMPin(s cellShape) float64 {
	as := vm.NewAddressSpace(1, vm.NewPhysMem(0))
	pages := s.pinBytes / vm.PageSize
	iters := cellPages / pages
	addr, err := as.Mmap(s.pinBytes)
	must(err)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if s.freshPin && i > 0 {
			must(as.Munmap(addr, s.pinBytes))
			addr, err = as.Mmap(s.pinBytes)
			must(err)
		}
		p, err := as.Pin(addr, s.pinBytes)
		must(err)
		must(p.Unpin())
	}
	return nsPer(t0, iters*pages)
}

// cellReclaim dirties a working set a third larger than kv-pressure's
// 1536-frame server budget, so every sweep steals pages in direct reclaim
// and swaps the stolen ones back in.
func cellReclaim(cellShape) float64 {
	const frames, span, sweeps = 1536, 2048, 12
	pm := vm.NewPhysMem(frames)
	as := vm.NewAddressSpace(1, pm)
	addr, err := as.Mmap(span * vm.PageSize)
	must(err)
	page := make([]byte, vm.PageSize)
	for i := range page {
		page[i] = byte(i + 1)
	}
	stolen0 := pm.ReclaimStats().PgSteal
	t0 := time.Now()
	for i := 0; i < sweeps; i++ {
		for p := 0; p < span; p++ {
			must(as.Write(addr+vm.Addr(p*vm.PageSize), page))
		}
	}
	return nsPer(t0, int(pm.ReclaimStats().PgSteal-stolen0))
}

// coreRig is one process's region manager and cache on a bare engine, with
// no NIC and no protocol, so a cell measures the two alone.
type coreRig struct {
	eng   *sim.Engine
	as    *vm.AddressSpace
	mgr   *core.Manager
	cache *core.Cache
}

func newCoreRig(policy core.PinPolicy) *coreRig {
	eng := sim.NewEngine(1)
	appCore := cpu.NewMachine(eng, cpu.XeonE5460).Core(1)
	as := vm.NewAddressSpace(1, vm.NewPhysMem(0))
	mgr := core.NewManager(eng, as, appCore, core.ManagerConfig{Policy: policy, PinChunkPages: 32})
	cache := core.NewCache(eng, mgr, appCore, core.CacheConfig{Enabled: true, Eviction: "lru"})
	return &coreRig{eng: eng, as: as, mgr: mgr, cache: cache}
}

// lookups runs n cache Get/Put pairs, cycling through bufs.
func (r *coreRig) lookups(n int, bufs [][]core.Segment) float64 {
	put := func(reg *core.Region, err error) {
		must(err)
		r.cache.Put(reg)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.cache.GetAsync(bufs[i%len(bufs)], put)
		r.eng.Run()
	}
	return nsPer(t0, n)
}

func (r *coreRig) buffers(n, bytes int) [][]core.Segment {
	out := make([][]core.Segment, n)
	for i := range out {
		a, err := r.as.Mmap(bytes)
		must(err)
		out[i] = []core.Segment{{Addr: a, Len: bytes}}
	}
	return out
}

// cellCacheHit looks up one cached declaration over and over.
func cellCacheHit(s cellShape) float64 {
	r := newCoreRig(s.policy)
	bufs := r.buffers(1, s.pinBytes)
	r.lookups(1, bufs)
	return r.lookups(50_000, bufs)
}

// cellCacheMiss cycles through twice the cache's 64 entries, so every
// lookup misses, declares, and evicts the least recently used entry.
func cellCacheMiss(s cellShape) float64 {
	r := newCoreRig(s.policy)
	return r.lookups(20_000, r.buffers(128, s.pinBytes))
}

// cellPinChunk acquires and releases one region under pin-each-comm, so
// every acquire pins it in 32-page chunks and every release unpins it.
func cellPinChunk(s cellShape) float64 {
	r := newCoreRig(core.PinEachComm)
	reg, err := r.mgr.Declare(r.buffers(1, s.pinBytes)[0])
	must(err)
	pages := s.pinBytes / vm.PageSize
	chunks := (pages + 31) / 32
	iters := cellPages / pages
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		done := r.mgr.Acquire(reg)
		r.eng.Run()
		must(done.Err())
		r.mgr.Release(reg)
		r.eng.Run()
	}
	return nsPer(t0, iters*chunks)
}

// cellPullWindow sends 256 KiB messages between two nodes: one rendezvous
// and one full pull window of 8 x 32 KiB blocks each, over buffers the
// cache keeps declared.
func cellPullWindow(s cellShape) float64 {
	const msgs, size = 400, 8 * 32 << 10
	cl, err := cluster.New(cluster.Config{Nodes: 2, OMX: omx.DefaultConfig(s.policy, true)})
	must(err)
	t0 := time.Now()
	cl.Run(func(c *mpi.Comm) {
		buf := c.Malloc(size)
		c.WriteBytes(buf, make([]byte, size))
		for i := 0; i < msgs; i++ {
			if c.Rank() == 0 {
				c.Send(buf, size, 1, 1)
			} else {
				c.Recv(buf, size, 0, 1)
			}
		}
	})
	ns := nsPer(t0, msgs)
	if leaked := cl.Close(); leaked != 0 {
		panic(fmt.Sprintf("omxbench cell: pull window leaked %d pinned pages", leaked))
	}
	return ns
}

// cellFrame sends MTU-sized frames between two NICs, in batches of 64,
// from NIC.Send to the receive handler.
func cellFrame(cellShape) float64 {
	const frames, batch = 200_000, 64
	eng := sim.NewEngine(1)
	fab := ethernet.NewFabric(eng, ethernet.DefaultLinkConfig())
	tx, rx := fab.AddNIC(0, 0), fab.AddNIC(1, 0)
	got := 0
	rx.SetHandler(func(*ethernet.Frame) { got++ })
	t0 := time.Now()
	for sent := 0; sent < frames; sent += batch {
		for j := 0; j < batch; j++ {
			tx.Send(&ethernet.Frame{Dst: 1, Size: ethernet.DefaultMTU})
		}
		eng.Run()
	}
	ns := nsPer(t0, frames)
	if got != frames {
		panic(fmt.Sprintf("omxbench cell: %d of %d frames delivered", got, frames))
	}
	return ns
}

// cellBarrier runs two shards with one event per lookahead window each and
// one cross-shard event per window, as fleet-kv's 2µs windows do.
func cellBarrier(cellShape) float64 {
	const steps = 20_000
	const la = 2 * sim.Microsecond
	engines := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(1)}
	ss := sim.NewShardSet(la, engines)
	windows := 0
	ss.AddBarrierHook(func() { windows++ })
	for i, e := range engines {
		n := 0
		var tick func()
		tick = func() {
			n++
			if i == 0 {
				ss.Post(sim.CrossEvent{When: e.Now() + la, SendTime: e.Now(),
					SrcShard: 0, DstShard: 1, SrcNode: 0, DstNode: 1, SrcSeq: uint64(n), Fn: func() {}})
			}
			if n < steps {
				e.After(la, tick)
			}
		}
		e.After(0, tick)
	}
	t0 := time.Now()
	ss.Run()
	return nsPer(t0, windows)
}
