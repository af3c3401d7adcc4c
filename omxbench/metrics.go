package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"omxsim/internal/report"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are what a user of the simulator sees: host time and memory to
// run a workload, and the modelled system's throughput and latency.
// BENCHMARK.json lists the same names, units and regression bounds.
var endToEnd = []metricDef{
	{"wall_ms.p50", "ms"},
	{"wall_ms.p75", "ms"},
	{"setup_s", "s"},
	{"live_mb", "MB"},
	{"sim_mibps", "MiB/s"},
	{"sim_mean_us", "us"},
	{"sim_p95_us", "us"},
}

// perLayer read single layers: counts per rep (exact, averaged over the
// deterministic reps), simulated busy time, host-side allocation, the
// layer cells, and each layer's CPU self time from the traced run's profile.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.sim_ms", "ms"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.windows", "count"},
	{"sim.barrier_ns", "ns"},
	{"sim.self_ms", "ms"},
	{"runtime.allocs", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_ms", "ms"},
	{"runtime.sched_ms", "ms"},
	{"runtime.other_ms", "ms"},
	{"vm.faults", "count"},
	{"vm.cow_breaks", "count"},
	{"vm.invalidations", "count"},
	{"vm.pgscan", "count"},
	{"vm.pgsteal", "count"},
	{"vm.direct_stalls", "count"},
	{"vm.swap_ins", "count"},
	{"vm.pin_ns_per_page", "ns"},
	{"vm.reclaim_ns_per_page", "ns"},
	{"vm.self_ms", "ms"},
	{"core.pin_ops", "count"},
	{"core.pages_pinned", "count"},
	{"core.repins", "count"},
	{"core.pin_failures", "count"},
	{"core.invalidate_hits", "count"},
	{"core.cache_lookups", "count"},
	{"core.cache_hits", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.cache_invalidations", "count"},
	{"core.cache_evictions", "count"},
	{"core.cache_hit_ns", "ns"},
	{"core.cache_miss_ns", "ns"},
	{"core.pin_chunk_ns", "ns"},
	{"core.self_ms", "ms"},
	{"omx.frames_rx", "count"},
	{"omx.pull_replies", "count"},
	{"omx.overlap_misses", "count"},
	{"omx.overlap_miss_ratio", "ratio"},
	{"omx.rereqs", "count"},
	{"omx.retransmits", "count"},
	{"omx.req_aborts", "count"},
	{"omx.pull_window_ns", "ns"},
	{"omx.self_ms", "ms"},
	{"ethernet.tx_frames", "count"},
	{"ethernet.tx_mb", "MB"},
	{"ethernet.dropped", "count"},
	{"ethernet.frame_ns", "ns"},
	{"ethernet.self_ms", "ms"},
	{"cpu.bh_busy_ms", "ms"},
	{"cpu.kernel_busy_ms", "ms"},
	{"cpu.user_busy_ms", "ms"},
	{"cpu.self_ms", "ms"},
	{"kv.issued", "count"},
	{"kv.ok", "count"},
	{"kv.rejected", "count"},
	{"kv.errors", "count"},
	{"kv.failovers", "count"},
	{"kv.get_p50_us", "us"},
	{"kv.get_p999_us", "us"},
	{"kv.put_p99_us", "us"},
	{"kv.self_ms", "ms"},
	{"cluster.setup_kb_per_node", "KB"},
	{"cluster.close_ms", "ms"},
	{"other.self_ms", "ms"},
	{"trace_overhead_pct", "%"},
	{"host.calib_ms", "ms"},
	{"host.wall_raw_ms", "ms"},
}

// selfLayers are the profile buckets reported as <layer>.self_ms; the
// runtime buckets have metrics of their own and the rest fold into other.
var selfLayers = []string{"sim", "vm", "core", "omx", "ethernet", "cpu", "kv"}

var runtimeBuckets = map[string]string{
	"runtime.gc":    "runtime.gc_ms",
	"runtime.sched": "runtime.sched_ms",
	"runtime.other": "runtime.other_ms",
}

// metrics computes every metric the run measured, by name.
func (d *runData) metrics() map[string]float64 {
	m := make(map[string]float64)
	wall := sample(d.reps, func(r repStats) float64 { return ms(r.norm(r.wall)) })
	m["wall_ms.p50"] = quantile(wall, 0.5)
	m["wall_ms.p75"] = quantile(wall, 0.75)
	m["setup_s"] = quantile(sample(d.reps, func(r repStats) float64 { return r.norm(r.setup).Seconds() }), 0.5)
	m["live_mb"] = d.liveMB
	m["host.calib_ms"] = quantile(sample(d.reps, func(r repStats) float64 { return ms(r.calib) }), 0.5)
	m["host.wall_raw_ms"] = quantile(sample(d.reps, func(r repStats) float64 { return ms(r.wall) }), 0.5)

	det := d.reps[:d.w.detReps]
	var latNs []int64
	var get, put report.Hist
	var xfer []transfer
	for _, r := range det {
		latNs = append(latNs, r.out.latNs...)
		get.Merge(&r.out.get)
		put.Merge(&r.out.put)
		for i, x := range r.out.xfer {
			if i == len(xfer) {
				xfer = append(xfer, transfer{})
			}
			xfer[i].bytes += x.bytes
			xfer[i].ns += x.ns
		}
		for k, v := range r.counts {
			m[k] += v / float64(len(det))
		}
	}
	logSum := 0.0
	for _, x := range xfer {
		logSum += math.Log(x.bytes / x.ns * 1e9 / (1 << 20))
	}
	m["sim_mibps"] = math.Exp(logSum / float64(len(xfer)))
	if len(latNs) > 0 {
		m["sim_mean_us"], m["sim_p95_us"] = meanUS(latNs), exactUS(latNs, 0.95)
	} else {
		var all report.Hist
		all.Merge(&get)
		all.Merge(&put)
		m["sim_mean_us"], m["sim_p95_us"] = all.Mean()/1e3, histUS(&all, 0.95)
	}
	m["kv.get_p50_us"] = histUS(&get, 0.5)
	m["kv.get_p999_us"] = histUS(&get, 0.999)
	m["kv.put_p99_us"] = histUS(&put, 0.99)
	m["core.cache_hit_ratio"] = ratio(m["core.cache_hits"], m["core.cache_lookups"])
	m["omx.overlap_miss_ratio"] = ratio(m["omx.overlap_misses"], m["omx.pull_replies"])

	m["sim.host_ns_per_event"] = quantile(sample(d.reps, func(r repStats) float64 {
		return ratio(float64(r.norm(r.wall).Nanoseconds()), r.counts["sim.events"])
	}), 0.5)
	m["runtime.allocs"] = quantile(sample(d.reps, func(r repStats) float64 { return float64(r.allocs) }), 0.5)
	m["runtime.alloc_mb"] = quantile(sample(d.reps, func(r repStats) float64 { return float64(r.allocBytes) / 1e6 }), 0.5)
	m["cluster.setup_kb_per_node"] = quantile(sample(d.reps, func(r repStats) float64 { return r.setupKBPerNode }), 0.5)
	m["cluster.close_ms"] = quantile(sample(d.reps, func(r repStats) float64 { return ms(r.norm(r.close)) }), 0.5)

	if d.traced == nil {
		return m
	}
	for _, l := range selfLayers {
		m[l+".self_ms"] = 0
	}
	for _, name := range runtimeBuckets {
		m[name] = 0
	}
	m["other.self_ms"] = 0
	for b, v := range d.selfMS {
		switch {
		case runtimeBuckets[b] != "":
			m[runtimeBuckets[b]] += v
		case slices.Contains(selfLayers, b):
			m[b+".self_ms"] += v
		default:
			m["other.self_ms"] += v
		}
	}
	for k, v := range d.cells {
		m[k] = v
	}
	tracedWall := quantile(sample(d.traced, func(r repStats) float64 { return ms(r.norm(r.wall)) }), 0.5)
	m["trace_overhead_pct"] = (tracedWall/m["wall_ms.p50"] - 1) * 100
	return m
}

// tally sums operations over every rep the run made, warm-up and traced
// reps included, and collects what went wrong.
func (d *runData) tally() (attempted, failed int, problems []string) {
	all := append(append([]repStats{d.warm}, d.reps...), d.traced...)
	for _, r := range all {
		attempted += r.out.attempted
		failed += r.out.failed
		for _, p := range r.out.problems {
			problems = append(problems, fmt.Sprintf("seed %d: %s", r.seed, p))
		}
	}
	// Tracing must not change what is simulated.
	events := make(map[int64]float64)
	for _, r := range d.reps[:d.w.detReps] {
		events[r.seed] = r.counts["sim.events"]
	}
	for _, r := range d.traced {
		if want, ok := events[r.seed]; ok && r.counts["sim.events"] != want {
			problems = append(problems, fmt.Sprintf("seed %d: traced rep fired %g events, untraced %g",
				r.seed, r.counts["sim.events"], want))
		}
	}
	return attempted, failed, problems
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sample(reps []repStats, f func(repStats) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// quantile interpolates linearly between order statistics; it returns 0
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// exactUS is the sample of rank ceil(q*n), in µs: the order statistic
// report.Hist's quantiles approximate from above.
func exactUS(ns []int64, q float64) float64 {
	s := slices.Clone(ns)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return float64(s[max(rank, 1)-1]) / 1e3
}

// histUS estimates h's q-quantile in µs. report.Hist answers with bucket
// upper bounds, each at most 1/32 above the bucket's smallest value; this
// spreads a bucket's samples evenly between that floor (or the bucket
// below, if higher) and the bound, so the estimate moves with the data
// instead of in 3% steps.
func histUS(h *report.Hist, q float64) float64 {
	n := int(h.Count())
	if n == 0 {
		return 0
	}
	// at is the bucket bound of the r'th smallest sample; asking for rank
	// r-1/2 keeps Hist's own rounding up from landing on r+1.
	at := func(r int) float64 { return float64(h.Quantile((float64(r) - 0.5) / float64(n))) }
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	v := at(rank)
	first := sort.Search(rank, func(r int) bool { return at(r+1) >= v }) + 1
	last := rank + sort.Search(n-rank, func(i int) bool { return at(rank+i+1) > v })
	below := float64(h.Min())
	if first > 1 {
		below = at(first - 1)
	}
	below = max(below, v*(1-1.0/32))
	est := below + (v-below)*float64(rank-first+1)/float64(last-first+1)
	return math.Min(est, float64(h.Max())) / 1e3
}

func meanUS(ns []int64) float64 {
	sum := 0.0
	for _, v := range ns {
		sum += float64(v)
	}
	return sum / float64(len(ns)) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
