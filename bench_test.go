// Package omxsim's benchmark harness regenerates every table and figure of
// the paper's evaluation (§4) as Go benchmarks:
//
//	BenchmarkTable1PinOverhead — Table 1 (per-host pin+unpin overheads)
//	BenchmarkFigure6           — Figure 6 (PingPong, pin-per-comm vs permanent, ±I/OAT)
//	BenchmarkFigure7           — Figure 7 (regular/overlapped/cache/both)
//	BenchmarkOverlapMiss       — §4.3 (miss rate, overloaded-core collapse)
//	BenchmarkTable2IMB         — Table 2 IMB rows (improvement percentages)
//	BenchmarkNPBIS             — Table 2 NPB IS row
//
// plus ablations for the design parameters ARCHITECTURE.md describes (pull
// window, pin chunk size, eager threshold, interrupt latency).
//
// Each benchmark runs whole simulations per iteration and attaches the
// paper-comparable quantity via b.ReportMetric (MiB/s, percent, ns/page),
// so `go test -bench . -benchmem` prints the reproduced numbers directly.
// The paper benchmarks run the registered scenarios' cells, so they
// measure exactly what `omxsim run` reports.
package omxsim

import (
	"fmt"
	"strings"
	"testing"

	"omxsim/internal/bench"
	"omxsim/internal/cluster"
	"omxsim/internal/cpu"
	"omxsim/internal/imb"
	"omxsim/internal/mpi"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/report"
	"omxsim/internal/scenario"
	"omxsim/internal/sim"
)

// registered looks a registered scenario up.
func registered(b *testing.B, name string) *scenario.Scenario {
	b.Helper()
	s, ok := scenario.Get(name)
	if !ok {
		b.Fatalf("scenario %q not registered", name)
	}
	return s
}

// runCells runs the scenario's cells opts selects once per iteration and
// returns the last report; a failed assertion fails the benchmark.
func runCells(b *testing.B, s *scenario.Scenario, opts scenario.Options) *report.Result {
	b.Helper()
	var res *report.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = s.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
	if res.Failed() {
		b.Fatalf("%s: an assertion failed: %+v", s.Name, res.Assertions)
	}
	return res
}

// baselineMetrics returns the metrics of a Table 2 row's regular-pinning
// cell, which carries the row's improvement percentages.
func baselineMetrics(b *testing.B, res *report.Result) map[string]float64 {
	b.Helper()
	for _, c := range res.Cases {
		if c.Policy == policy.PinEachComm.Name() {
			return c.Metrics
		}
	}
	b.Fatalf("%s: no regular-pinning cell", res.Scenario)
	return nil
}

// BenchmarkTable1PinOverhead measures the pin+unpin cost per host through
// the full driver path (one pinbench cell each). Metrics: base-us and
// ns/page (Table 1 columns).
func BenchmarkTable1PinOverhead(b *testing.B) {
	s := registered(b, "pinbench")
	for _, host := range s.PolicyLabels() {
		b.Run(host, func(b *testing.B) {
			m := runCells(b, s, scenario.Options{Policy: host}).Cases[0].Metrics
			b.ReportMetric(m["base_us"], "base-us")
			b.ReportMetric(m["ns_per_page"], "ns/page")
			b.ReportMetric(m["gbps"], "GB/s")
		})
	}
}

// pingPongMBps runs one PingPong config at one size and returns MiB/s.
func pingPongMBps(b *testing.B, cfg omx.Config, size int) float64 {
	b.Helper()
	cl, err := cluster.New(cluster.Config{Nodes: 2, OMX: cfg})
	if err != nil {
		b.Fatal(err)
	}
	var mbps float64
	cl.Run(func(c *mpi.Comm) {
		r := imb.PingPong(c, size, imb.Iterations(size))
		if c.Rank() == 0 {
			mbps = r.MBps
		}
	})
	return mbps
}

// benchFigure benchmarks every case of a registered figure scenario at
// the scenario's quick sizes; metric MiB/s per (curve, size).
func benchFigure(b *testing.B, name string) {
	s := registered(b, name)
	for _, c := range s.Cases {
		for _, size := range s.QuickSizes {
			b.Run(fmt.Sprintf("%s/%s", c.Label, sizeName(size)), func(b *testing.B) {
				var mbps float64
				for i := 0; i < b.N; i++ {
					mbps = pingPongMBps(b, c.OMX, size)
				}
				b.ReportMetric(mbps, "MiB/s")
			})
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6's curves.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, "figure6") }

// BenchmarkFigure7 regenerates Figure 7's curves.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, "figure7") }

// BenchmarkOverlapMiss regenerates §4.3 from the overlapmiss scenario's
// two cells: metrics are the overlap-miss rate (misses per accepted
// packet) and goodput.
func BenchmarkOverlapMiss(b *testing.B) {
	s := registered(b, "overlapmiss")
	for _, c := range s.Cases {
		b.Run(c.Params["load"], func(b *testing.B) {
			m := runCells(b, s, scenario.Options{Policy: c.Label}).Cases[0].Metrics
			b.ReportMetric(m["miss_rate"], "miss-rate")
			b.ReportMetric(m["mbps"], "MiB/s")
		})
	}
}

// BenchmarkTable2IMB regenerates the IMB rows of Table 2 from the imb
// scenario's quick cells, one application at a time; metrics are the
// cache and overlap improvement percentages vs regular pinning.
func BenchmarkTable2IMB(b *testing.B) {
	s := registered(b, "imb")
	for _, app := range s.PolicyLabels() {
		b.Run(strings.TrimPrefix(app, "IMB "), func(b *testing.B) {
			m := baselineMetrics(b, runCells(b, s, scenario.Options{Quick: true, Policy: app}))
			b.ReportMetric(m["cache_pct"], "cache-%")
			b.ReportMetric(m["overlap_pct"], "overlap-%")
		})
	}
}

// BenchmarkNPBIS regenerates the NPB IS row of Table 2 on 4 ranks (class
// A, the npbis scenario's quick class); the scenario asserts every cell
// verified.
func BenchmarkNPBIS(b *testing.B) {
	res := runCells(b, registered(b, "npbis"), scenario.Options{Quick: true, Policy: "NPB is"})
	m := baselineMetrics(b, res)
	b.ReportMetric(m["cache_pct"], "cache-%")
	b.ReportMetric(m["overlap_pct"], "overlap-%")
	b.ReportMetric(m["mops"], "Mop/s")
}

// BenchmarkAblationPullWindow varies the number of outstanding pull blocks:
// too small starves the wire, large enough saturates it.
func BenchmarkAblationPullWindow(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8, 16} {
		w := w
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			cfg := omx.DefaultConfig(policy.OnDemand, true)
			cfg.PullWindow = w
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = pingPongMBps(b, cfg, 4<<20)
			}
			b.ReportMetric(mbps, "MiB/s")
		})
	}
}

// BenchmarkAblationPinChunk varies the pin work granularity (ARCHITECTURE.md:
// chunking lets bottom halves interleave with a large pin; bigger chunks
// amortize better but block the core longer).
func BenchmarkAblationPinChunk(b *testing.B) {
	for _, pages := range []int{8, 32, 128, 512} {
		pages := pages
		b.Run(fmt.Sprintf("chunk=%dpages", pages), func(b *testing.B) {
			cfg := omx.DefaultConfig(policy.Overlapped, false)
			cfg.PinChunkPages = pages
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = pingPongMBps(b, cfg, 4<<20)
			}
			b.ReportMetric(mbps, "MiB/s")
		})
	}
}

// BenchmarkAblationEagerThreshold varies the eager/rendezvous switch point
// around the MXoE-mandated 32 KiB.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, thr := range []int{8 * 1024, 32 * 1024, 128 * 1024} {
		thr := thr
		b.Run(fmt.Sprintf("thr=%dKiB", thr/1024), func(b *testing.B) {
			cfg := omx.DefaultConfig(policy.OnDemand, true)
			cfg.EagerThreshold = thr
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = pingPongMBps(b, cfg, 64*1024)
			}
			b.ReportMetric(mbps, "MiB/s")
		})
	}
}

// BenchmarkAblationHosts runs the Figure 7 comparison on each Table 1 host:
// the paper's "5 to 20% depending on the host frequency" claim.
func BenchmarkAblationHosts(b *testing.B) {
	for _, spec := range cpu.Table1Hosts() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var gapPct float64
			for i := 0; i < b.N; i++ {
				regular := pingPongHost(b, omx.DefaultConfig(policy.PinEachComm, false), spec, 4<<20)
				cached := pingPongHost(b, omx.DefaultConfig(policy.OnDemand, true), spec, 4<<20)
				gapPct = (cached - regular) / regular * 100
			}
			b.ReportMetric(gapPct, "cache-gain-%")
		})
	}
}

func pingPongHost(b *testing.B, cfg omx.Config, spec cpu.Spec, size int) float64 {
	b.Helper()
	cl, err := cluster.New(cluster.Config{Nodes: 2, Spec: spec, OMX: cfg})
	if err != nil {
		b.Fatal(err)
	}
	var mbps float64
	cl.Run(func(c *mpi.Comm) {
		r := imb.PingPong(c, size, 8)
		if c.Rank() == 0 {
			mbps = r.MBps
		}
	})
	return mbps
}

// BenchmarkEngineOverhead puts the simulator's own dispatch speed on the
// benchmark trajectory: raw event throughput (events/sec) and allocations
// per scheduled event for zero-delay events, timed events and cancelled
// timers. The first two cell bodies live in internal/bench, shared with
// `omxsim bench`.
func BenchmarkEngineOverhead(b *testing.B) {
	b.Run("After0", func(b *testing.B) {
		// Zero-delay schedule+fire: a heap push and pop of a pooled event,
		// as at every other delay.
		b.ReportAllocs()
		bench.EngineAfter0Cell(b.N)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("Timed", func(b *testing.B) {
		// Timed events from 150ns to 20ms, the delays the protocol stack
		// actually uses; their event objects are pooled too.
		b.ReportAllocs()
		bench.EngineTimedCell(b.N)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("TimerCancel", func(b *testing.B) {
		// The timer-heavy protocol pattern: arm a coarse timeout, cancel it
		// before it fires (retransmit timers almost never expire).
		eng := sim.NewEngine(1)
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := eng.After(20_000_000, fn)
			eng.After(100, fn)
			ev.Cancel()
			eng.Step()
		}
		b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "events/sec")
	})
}

// BenchmarkSimWallClock is the meta-benchmark the perf acceptance gate
// tracks: one full Figure 7 OverlappedCache 4 MiB PingPong cell per
// iteration (body shared with `omxsim bench` via internal/bench), reporting
// host ns per simulated µs (how much real time the simulator burns per unit
// of simulated time) and events/sec alongside the model's MiB/s.
func BenchmarkSimWallClock(b *testing.B) {
	b.ReportAllocs()
	var mbps, nsPerSimUs, eventsPerSec float64
	for i := 0; i < b.N; i++ {
		m, simUs, events := bench.SimWallClockCell()
		mbps = m
		if simUs > 0 {
			nsPerSimUs = b.Elapsed().Seconds() * 1e9 / float64(b.N) / simUs
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			eventsPerSec = float64(events) * float64(b.N) / secs
		}
	}
	b.ReportMetric(mbps, "MiB/s")
	b.ReportMetric(nsPerSimUs, "ns/sim-us")
	b.ReportMetric(eventsPerSec, "events/sec")
}

// BenchmarkSimWallClockParallel drives the 8-node fleet cell on
// GOMAXPROCS engine shards (body shared with `omxsim bench`, which also
// measures the 1-shard reference and reports parallel_speedup on
// multi-CPU hosts). Compare
// against BenchmarkSimWallClockParallelSerial for the parallel engine's
// wall-clock win on this machine.
func BenchmarkSimWallClockParallel(b *testing.B) {
	benchSimWallClockParallel(b, bench.ParallelShards())
}

// BenchmarkSimWallClockParallelSerial is the same cell on one shard —
// the windowed coordinator without concurrency, the speedup denominator.
func BenchmarkSimWallClockParallelSerial(b *testing.B) {
	benchSimWallClockParallel(b, 1)
}

func benchSimWallClockParallel(b *testing.B, shards int) {
	b.ReportAllocs()
	var mbps, nsPerSimUs, eventsPerSec float64
	for i := 0; i < b.N; i++ {
		m, simUs, events := bench.SimWallClockParallelCell(shards)
		mbps = m
		if simUs > 0 {
			nsPerSimUs = b.Elapsed().Seconds() * 1e9 / float64(b.N) / simUs
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			eventsPerSec = float64(events) * float64(b.N) / secs
		}
	}
	b.ReportMetric(float64(shards), "shards")
	b.ReportMetric(mbps, "MiB/s")
	b.ReportMetric(nsPerSimUs, "ns/sim-us")
	b.ReportMetric(eventsPerSec, "events/sec")
}

func sizeName(s int) string {
	if s >= 1<<20 {
		return fmt.Sprintf("%dMB", s>>20)
	}
	return fmt.Sprintf("%dkB", s>>10)
}

// BenchmarkAblationPolicies compares all five pinning models (including the
// QsNet-style NoPinning upper bound the paper's conclusion points at) on a
// 4 MiB PingPong.
func BenchmarkAblationPolicies(b *testing.B) {
	cases := []struct {
		name string
		cfg  omx.Config
	}{
		{"PinEachComm", omx.DefaultConfig(policy.PinEachComm, false)},
		{"OnDemandCache", omx.DefaultConfig(policy.OnDemand, true)},
		{"Overlapped", omx.DefaultConfig(policy.Overlapped, false)},
		{"Permanent", omx.DefaultConfig(policy.Permanent, true)},
		{"NoPinning", omx.DefaultConfig(policy.NoPinning, true)},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = pingPongMBps(b, c.cfg, 4<<20)
			}
			b.ReportMetric(mbps, "MiB/s")
		})
	}
}

// BenchmarkAblationSyncPrefix varies the §4.3 sync-prefix mitigation under
// overlapped pinning.
func BenchmarkAblationSyncPrefix(b *testing.B) {
	for _, prefix := range []int{-1, 8, 64, 512} {
		prefix := prefix
		name := fmt.Sprintf("prefix=%d", prefix)
		if prefix < 0 {
			name = "prefix=off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := omx.DefaultConfig(policy.Overlapped, false)
			cfg.SyncPrefixPages = prefix
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = pingPongMBps(b, cfg, 4<<20)
			}
			b.ReportMetric(mbps, "MiB/s")
		})
	}
}
