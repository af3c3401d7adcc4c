// Package bench runs the simulator meta-benchmark suite outside `go test`,
// so CI (and `omxsim bench`) can track simulator speed itself — ns per
// simulated µs, events/sec, allocations — as part of the benchmark
// trajectory, writing machine-readable BENCH_PR<N>.json artifacts.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"omxsim/internal/cluster"
	"omxsim/internal/ethernet"
	"omxsim/internal/imb"
	"omxsim/internal/kv"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/scenario"
	"omxsim/internal/sim"
)

// Baseline pins the pre-optimization reference the acceptance gate compares
// against: the meta-benchmark cell measured at the PR 2 base commit, before
// the event-engine/zero-copy/batched-range work.
type Baseline struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Commit  string  `json:"commit"`
}

// PR2Baseline is BenchmarkSimWallClock (the full Figure 7 OverlappedCache
// 4 MiB PingPong cell) measured at commit 7395822 on the CI reference
// machine class (Xeon @ 2.10GHz): 70.26 ms/op, 87.75 MB and 154266 allocs
// per op.
var PR2Baseline = Baseline{
	Name:    "SimWallClock",
	NsPerOp: 70_256_977,
	Commit:  "7395822",
}

// Result is one benchmark measurement.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_PR<N>.json document.
type Report struct {
	PR     int    `json:"pr"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	// Host the numbers were measured on: wall-clock figures only compare
	// across artifacts from the same machine class.
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// ParallelSpeedup is SimWallClockParallelSerial's ns/op over
	// SimWallClockParallel's. It is null on a one-CPU host, where the
	// shards cannot run at the same time and the ratio measures nothing.
	ParallelSpeedup   *float64 `json:"parallel_speedup"`
	Baseline          Baseline `json:"baseline"`
	SpeedupVsBaseline float64  `json:"speedup_vs_baseline"`
	Benchmarks        []Result `json:"benchmarks"`
}

// measure runs body repeatedly until minWall elapses (at least minIters
// times) and returns per-op statistics. metrics receives the last run's
// reported values.
func measure(name string, minIters int, minWall time.Duration, body func(metrics map[string]float64)) Result {
	metrics := make(map[string]float64)
	body(metrics) // warmup, excluded from timing
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	iters := 0
	for time.Since(start) < minWall || iters < minIters {
		body(metrics)
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return Result{
		Name:        name,
		Iterations:  iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(iters),
		Metrics:     metrics,
	}
}

// SimWallClockCell runs the acceptance-gate cell once — Figure 7
// OverlappedCache, 4 MiB PingPong — and returns the model throughput, the
// simulated time covered, and the events dispatched. BenchmarkSimWallClock
// and `omxsim bench` share this body so the gate benchmark and the JSON
// artifact can never measure different cells.
func SimWallClockCell() (mbps, simMicros float64, events uint64) {
	cl, err := cluster.New(cluster.Config{Nodes: 2, OMX: omx.DefaultConfig(policy.Overlapped, true)})
	if err != nil {
		panic(err)
	}
	cl.Run(func(c *mpi.Comm) {
		r := imb.PingPong(c, 4<<20, imb.Iterations(4<<20))
		if c.Rank() == 0 {
			mbps = r.MBps
		}
	})
	return mbps, cl.Now().Micros(), cl.EventsFired()
}

// ParallelShards picks the shard count the parallel cell measures:
// GOMAXPROCS, clamped to the cell's 8 nodes (1 shard on a 1-core host —
// the parallel engine cannot beat serial without real cores).
func ParallelShards() int {
	s := runtime.GOMAXPROCS(0)
	if s > 8 {
		s = 8
	}
	if s < 1 {
		s = 1
	}
	return s
}

// SimWallClockParallelCell runs the parallel-engine cell once — an 8-node
// 16-rank pairwise streaming fleet (the fleet-stream scenario's shape) on
// the given shard count — and returns the model throughput, simulated
// time covered, and events dispatched. shards=1 is the serial reference
// the parallel_speedup metric divides by; the statistics are identical at
// every shard count (the determinism tests enforce it), so the two runs
// measure the same work.
func SimWallClockParallelCell(shards int) (mbps, simMicros float64, events uint64) {
	link := ethernet.DefaultLinkConfig()
	link.PropDelay = 2 * sim.Microsecond // switch-hop latency = lookahead window
	cl, err := cluster.New(cluster.Config{
		Nodes:        8,
		RanksPerNode: 2,
		Shards:       shards,
		Link:         &link,
		OMX:          omx.DefaultConfig(policy.Overlapped, true),
	})
	if err != nil {
		panic(err)
	}
	const bytes = 1 << 20
	const rounds = 8
	cl.Run(func(c *mpi.Comm) {
		half := c.Size() / 2
		peer := (c.Rank() + half) % c.Size()
		tx := c.Malloc(bytes)
		rx := c.Malloc(bytes)
		c.Barrier()
		start := c.Now()
		for r := 0; r < rounds; r++ {
			if c.Rank() < half {
				c.Send(tx, bytes, peer, 7)
				c.Recv(rx, bytes, peer, 7)
			} else {
				c.Recv(rx, bytes, peer, 7)
				c.Send(tx, bytes, peer, 7)
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			elapsed := c.Now() - start
			total := float64(rounds) * float64(bytes) * float64(c.Size())
			mbps = total / elapsed.Seconds() / (1 << 20)
		}
	})
	return mbps, cl.Now().Micros(), cl.EventsFired()
}

// benchSink collects kv rank stats without pulling in the scenario layer.
type benchSink struct {
	mu    sync.Mutex
	stash map[string]any
}

func (s *benchSink) Stash(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stash == nil {
		s.stash = make(map[string]any)
	}
	s.stash[key] = v
}

func (s *benchSink) Note(string, ...any) {}

// KVServeCell runs a scaled-down kvserve cell once — one storage server,
// three open-loop Zipfian clients, pinning-cache backend — and returns
// the cluster-wide GET latency percentiles in simulated µs plus the
// events dispatched. The percentiles are simulated quantities, so they
// are deterministic: the guard can hold them to a tight band, turning
// tail-latency regressions on the serving path into bench failures.
func KVServeCell() (p50, p99, p999 float64, events uint64) {
	cl, err := cluster.New(cluster.Config{
		Nodes:        2,
		RanksPerNode: 2,
		OMX:          omx.DefaultConfig(policy.Overlapped, true),
	})
	if err != nil {
		panic(err)
	}
	cfg := kv.Config{
		Servers:    1,
		Keys:       32,
		ValueBytes: 64 << 10,
		Theta:      0.9,
		Workers:    4,
		Tenants: []kv.Tenant{
			{Name: "bench", Ops: 60, Rate: 6000, GetFrac: 0.7, MaxInflight: 16},
		},
	}
	sink := &benchSink{}
	cl.Run(func(c *mpi.Comm) {
		kv.Run(c, sink, 1, cfg)
	})
	m := kv.Collect(cfg, 4, func(r int) *kv.Stats {
		st, _ := sink.stash[kv.StashKey(r)].(*kv.Stats)
		return st
	})
	return m.Get.QuantileUS(0.50), m.Get.QuantileUS(0.99), m.Get.QuantileUS(0.999),
		cl.EventsFired()
}

// KVServeFleetCell runs the replicated multi-endpoint serving cell once —
// a two-group cluster (two storage servers with two endpoint lanes each on
// 2-queue NICs, two client nodes) serving a 2-way-replicated keyspace —
// and returns the GET latency percentiles in simulated µs plus the events
// dispatched. This is the fleet-kv I/O path (lanes, RSS steering, replica
// writes) at bench scale: the percentiles are simulated and exact, so the
// guard holds the replicated serving path's tail the way KVServeTail holds
// the single-copy path's.
func KVServeFleetCell() (p50, p99, p999 float64, events uint64) {
	cl, err := cluster.New(cluster.Config{
		Groups: []cluster.NodeGroup{
			{Name: "storage", Nodes: 2, EndpointsPerNode: 2, NICQueues: 2},
			{Name: "clients", Nodes: 2},
		},
		OMX: omx.DefaultConfig(policy.Overlapped, true),
	})
	if err != nil {
		panic(err)
	}
	cfg := kv.Config{
		Servers:     2,
		Keys:        64,
		ValueBytes:  64 << 10,
		Theta:       0.9,
		Workers:     4,
		Replication: 2,
		Tenants: []kv.Tenant{
			{Name: "bench", Ops: 40, Rate: 4000, GetFrac: 0.7, MaxInflight: 8},
		},
	}
	sink := &benchSink{}
	cl.Run(func(c *mpi.Comm) {
		kv.Run(c, sink, 1, cfg)
	})
	m := kv.Collect(cfg, 4, func(r int) *kv.Stats {
		st, _ := sink.stash[kv.StashKey(r)].(*kv.Stats)
		return st
	})
	return m.Get.QuantileUS(0.50), m.Get.QuantileUS(0.99), m.Get.QuantileUS(0.999),
		cl.EventsFired()
}

// EngineAfter0Cell performs n zero-delay schedule+fire round trips on a
// fresh engine (the zero-delay microbenchmark body).
func EngineAfter0Cell(n int) {
	eng := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < n; i++ {
		eng.After(0, fn)
		eng.Step()
	}
}

// TimedDelays are the timed-scheduling delays the timed-event
// microbenchmark cycles through — the delays the protocol stack actually
// uses, from a 150 ns bottom half to a 20 ms retransmit timer.
var TimedDelays = []sim.Duration{150, 5000, 65_000, 2_000_000, 20_000_000}

// EngineTimedCell performs n timed schedule+fire round trips over
// TimedDelays.
func EngineTimedCell(n int) {
	eng := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < n; i++ {
		eng.After(TimedDelays[i%len(TimedDelays)], fn)
		eng.Step()
	}
}

// SpecCompileSpec is the spec file the SpecCompile cell measures: the
// 1024-node fleet example, the largest shipped spec. The cell only runs
// when the file is present (i.e. `omxsim bench` from the repo root).
const SpecCompileSpec = "examples/fleet-1k.yaml"

// SpecCompileCell parses and compiles one spec source — the whole
// declarative front end: yamlite parse, strict decode, fleet resolution,
// and compilation down to a runnable Scenario. Returns the resolved node
// count so the metric map can record the scale.
func SpecCompileCell(src []byte, file string) int {
	s, err := scenario.LoadSpecData(src, file)
	if err != nil {
		panic(fmt.Sprintf("bench: %s does not compile: %v", file, err))
	}
	nodes := 0
	for _, g := range s.Cluster.Groups {
		nodes += g.Nodes
	}
	if nodes == 0 {
		nodes = s.Cluster.Nodes
	}
	return nodes
}

// specCompile adapts SpecCompileCell to the suite's metric map.
func specCompile(src []byte, file string, metrics map[string]float64) {
	const n = 50
	start := time.Now()
	nodes := 0
	for i := 0; i < n; i++ {
		nodes = SpecCompileCell(src, file)
	}
	wall := time.Since(start)
	metrics["nodes"] = float64(nodes)
	if s := wall.Seconds(); s > 0 {
		metrics["compiles/sec"] = n / s
	}
}

// simWallClock adapts SimWallClockCell to the suite's metric map.
func simWallClock(metrics map[string]float64) {
	start := time.Now()
	mbps, simMicros, events := SimWallClockCell()
	wall := time.Since(start)
	metrics["MiB/s"] = mbps
	if simMicros > 0 {
		metrics["ns/sim-us"] = float64(wall.Nanoseconds()) / simMicros
	}
	if s := wall.Seconds(); s > 0 {
		metrics["events/sec"] = float64(events) / s
	}
}

// simWallClockParallel adapts SimWallClockParallelCell to the suite's
// metric map.
func simWallClockParallel(shards int, metrics map[string]float64) {
	start := time.Now()
	mbps, simMicros, events := SimWallClockParallelCell(shards)
	wall := time.Since(start)
	metrics["MiB/s"] = mbps
	if simMicros > 0 {
		metrics["ns/sim-us"] = float64(wall.Nanoseconds()) / simMicros
	}
	if s := wall.Seconds(); s > 0 {
		metrics["events/sec"] = float64(events) / s
	}
}

// kvServeTail adapts KVServeCell to the suite's metric map. The *_us
// metrics are simulated time — identical every run — while ns_per_op and
// events/sec track how fast the host executes the cell.
func kvServeTail(metrics map[string]float64) {
	start := time.Now()
	p50, p99, p999, events := KVServeCell()
	wall := time.Since(start)
	metrics["p50_us"] = p50
	metrics["p99_us"] = p99
	metrics["p999_us"] = p999
	if s := wall.Seconds(); s > 0 {
		metrics["events/sec"] = float64(events) / s
	}
}

// kvServeFleet adapts KVServeFleetCell to the suite's metric map.
func kvServeFleet(metrics map[string]float64) {
	start := time.Now()
	p50, p99, p999, events := KVServeFleetCell()
	wall := time.Since(start)
	metrics["p50_us"] = p50
	metrics["p99_us"] = p99
	metrics["p999_us"] = p999
	if s := wall.Seconds(); s > 0 {
		metrics["events/sec"] = float64(events) / s
	}
}

// engineAfter0 measures zero-delay scheduling in isolation.
func engineAfter0(metrics map[string]float64) {
	const n = 2_000_000
	start := time.Now()
	EngineAfter0Cell(n)
	metrics["events/sec"] = n / time.Since(start).Seconds()
}

// engineTimed measures timed scheduling over TimedDelays.
func engineTimed(metrics map[string]float64) {
	const n = 500_000
	start := time.Now()
	EngineTimedCell(n)
	metrics["events/sec"] = n / time.Since(start).Seconds()
}

// figure7Cell runs one extra trajectory cell (Regular policy) so the JSON
// tracks the unoptimized-policy path too.
func figure7Regular(metrics map[string]float64) {
	cl, err := cluster.New(cluster.Config{Nodes: 2, OMX: omx.DefaultConfig(policy.PinEachComm, false)})
	if err != nil {
		panic(err)
	}
	var mbps float64
	cl.Run(func(c *mpi.Comm) {
		r := imb.PingPong(c, 1<<20, imb.Iterations(1<<20))
		if c.Rank() == 0 {
			mbps = r.MBps
		}
	})
	metrics["MiB/s"] = mbps
}

// Run executes the suite. quick shortens the measurement windows (for CI);
// the acceptance-relevant numbers are identical in shape.
func Run(pr int, quick bool) Report {
	minWall := 3 * time.Second
	minIters := 10
	if quick {
		minWall = 500 * time.Millisecond
		minIters = 3
	}
	// The parallel cell is measured twice — once on one shard (the serial
	// reference) and once on GOMAXPROCS shards — and the artifact carries
	// their ratio as parallel_speedup wherever the host has more than one
	// CPU.
	shards := ParallelShards()
	serial := measure("SimWallClockParallelSerial", minIters, minWall/2, func(m map[string]float64) {
		simWallClockParallel(1, m)
	})
	par := measure("SimWallClockParallel", minIters, minWall/2, func(m map[string]float64) {
		simWallClockParallel(shards, m)
	})
	par.Metrics["shards"] = float64(shards)
	var speedup *float64
	if runtime.NumCPU() > 1 && par.NsPerOp > 0 {
		s := serial.NsPerOp / par.NsPerOp
		speedup = &s
	}
	results := []Result{
		measure("SimWallClock", minIters, minWall, simWallClock),
		serial,
		par,
		measure("EngineAfter0", 1, minWall/4, engineAfter0),
		measure("EngineTimed", 1, minWall/4, engineTimed),
		measure("Figure7Regular1MB", minIters, minWall/2, figure7Regular),
		measure("KVServeTail", minIters, minWall/2, kvServeTail),
		measure("KVServeFleet", minIters, minWall/2, kvServeFleet),
	}
	// The declarative front end: parse+compile the 1024-node fleet spec.
	// Only measured when the file is reachable (bench from the repo root),
	// so the artifact stays producible from other working directories.
	if src, err := os.ReadFile(SpecCompileSpec); err == nil {
		results = append(results, measure("SpecCompile", minIters, minWall/4,
			func(m map[string]float64) { specCompile(src, SpecCompileSpec, m) }))
	}
	rep := Report{
		PR:              pr,
		GoOS:            runtime.GOOS,
		GoArch:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		ParallelSpeedup: speedup,
		Baseline:        PR2Baseline,
		Benchmarks:      results,
	}
	for _, r := range results {
		if r.Name == rep.Baseline.Name && r.NsPerOp > 0 {
			rep.SpeedupVsBaseline = rep.Baseline.NsPerOp / r.NsPerOp
		}
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadReport reads a previously written BENCH_PR<N>.json artifact.
func LoadReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return r, nil
}

// Guard compares the current measurements against a prior artifact and
// errors when a gated benchmark is more than slack times slower — the
// perf-acceptance gate that keeps changes on the fault/pin hot path (like
// the reclaim hooks) from silently eroding the engine-overhaul win.
// SimWallClock is mandatory in both reports; SimWallClockParallel is
// gated only when the baseline artifact carries it (pre-parallel-engine
// artifacts like BENCH_PR2.json do not). A null parallel_speedup (either
// artifact measured on one CPU) is expected, never an error. Slack absorbs
// CI machine-class variance; 1.75 is generous enough that only a genuine
// regression (not noise) trips it.
func Guard(cur, prior Report, slack float64) error {
	if slack <= 0 {
		slack = 1.75
	}
	find := func(r Report, name string) (Result, bool) {
		for _, b := range r.Benchmarks {
			if b.Name == name {
				return b, true
			}
		}
		return Result{}, false
	}
	gate := func(name string) error {
		p, ok := find(prior, name)
		if !ok || p.NsPerOp <= 0 {
			return fmt.Errorf("bench guard: baseline artifact has no usable %s measurement", name)
		}
		c, ok := find(cur, name)
		if !ok {
			return fmt.Errorf("bench guard: current run has no %s measurement", name)
		}
		if c.NsPerOp > p.NsPerOp*slack {
			return fmt.Errorf("bench guard: %s %.1f ms/op is %.2fx the %.1f ms/op baseline (allowed %.2fx)",
				name, c.NsPerOp/1e6, c.NsPerOp/p.NsPerOp, p.NsPerOp/1e6, slack)
		}
		return nil
	}
	if err := gate("SimWallClock"); err != nil {
		return err
	}
	if _, ok := find(prior, "SimWallClockParallel"); ok {
		if err := gate("SimWallClockParallel"); err != nil {
			return err
		}
	}
	// SpecCompile is gated only when both artifacts carry it: the cell is
	// skipped entirely when examples/fleet-1k.yaml is out of reach, and
	// pre-spec artifacts (BENCH_PR8.json and earlier) never measured it.
	if _, ok := find(prior, "SpecCompile"); ok {
		if _, cok := find(cur, "SpecCompile"); cok {
			if err := gate("SpecCompile"); err != nil {
				return err
			}
		}
	}
	// KVServeTail's p99_us is simulated time, not wall clock: it is exactly
	// reproducible, so any growth at all is a real serving-path tail
	// regression, not machine noise. A hair of slack (5%) still absorbs
	// intentional protocol retunes that legitimately shift one bucket.
	if p, ok := find(prior, "KVServeTail"); ok && p.Metrics["p99_us"] > 0 {
		c, ok := find(cur, "KVServeTail")
		if !ok {
			return fmt.Errorf("bench guard: current run has no KVServeTail measurement")
		}
		if got, base := c.Metrics["p99_us"], p.Metrics["p99_us"]; got > base*1.05 {
			return fmt.Errorf("bench guard: KVServeTail p99 %.1fus is %.2fx the %.1fus baseline (simulated, allowed 1.05x)",
				got, got/base, base)
		}
	}
	// KVServeFleet gates the replicated multi-endpoint serving path the
	// same way, but only when both artifacts carry the cell (pre-replication
	// artifacts, BENCH_PR9.json and earlier, never measured it).
	if p, ok := find(prior, "KVServeFleet"); ok && p.Metrics["p99_us"] > 0 {
		if c, cok := find(cur, "KVServeFleet"); cok {
			if got, base := c.Metrics["p99_us"], p.Metrics["p99_us"]; got > base*1.05 {
				return fmt.Errorf("bench guard: KVServeFleet p99 %.1fus is %.2fx the %.1fus baseline (simulated, allowed 1.05x)",
					got, got/base, base)
			}
		}
	}
	return nil
}
