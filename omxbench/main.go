// Command omxbench is the simulator's benchmark. It runs four fixed
// workloads through the public APIs of cluster, mpi, kv, omx, core, vm,
// ethernet and sim, checks their outputs, prints every end-to-end and
// per-layer metric with its unit, and writes one JSON result file per
// workload. The last line of standard output is a JSON summary:
// {"correct", "attempted", "failed", "metrics"}, with the end-to-end
// metrics, or with -trace 1 the per-layer ones.
//
//	omxbench -workload kv-pressure -seed 3 -seconds 15
//	omxbench -workload fleet-kv -trace 1      # adds profile, spans and layer cells
//	omxbench -compare base/results new/results
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// result is one workload's result file.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Reps       int               `json:"reps"`
	TracedReps int               `json:"traced_reps,omitempty"`
	DetReps    int               `json:"deterministic_reps"`
	Host       hostInfo          `json:"host"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Samples holds per-rep values, for -compare to judge a single run's
	// spread by.
	Samples   map[string][]float64 `json:"samples"`
	TraceFile string               `json:"trace_file,omitempty"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("omxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "base seed; rep i runs seed+i modulo the workload's deterministic reps")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds each workload measures for")
	trace := fs.Int("trace", 0, "1 reruns the reps under a CPU profile and span log, times the layer cells, and reports the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for result files and traces")
	cmp := fs.Bool("compare", false, "judge result set B against result set A: omxbench -compare A B, each a result file or a directory of them")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose directions and bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "omxbench: -compare takes two result sets: A (base) and B (new)")
			return 2
		}
		return compareMain(stdout, stderr, *spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "omxbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "omxbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "omxbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		ws = []workload{w}
	}

	traced := *trace == 1
	reported := endToEnd
	if traced {
		reported = perLayer
	}
	sum := summary{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range ws {
		res, err := benchmark(w, *seed, *seconds, traced, *out)
		if err != nil {
			fmt.Fprintf(stderr, "omxbench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res)
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for _, def := range reported {
			key := def.name
			if len(ws) > 1 {
				key = w.name + "." + def.name
			}
			sum.Metrics[key] = res.Metrics[def.name]
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "omxbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// benchmark measures one workload and writes its result file, and with
// tracing its Chrome trace.
func benchmark(w workload, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	d, err := measure(w, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Seed: seed, Trace: traced, Seconds: seconds,
		Reps: len(d.reps), TracedReps: len(d.traced), DetReps: w.detReps,
		Host: hostInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
		Metrics: make(map[string]metric),
		Samples: map[string][]float64{
			"wall_ms":  sample(d.reps, func(r repStats) float64 { return ms(r.norm(r.wall)) }),
			"setup_s":  sample(d.reps, func(r repStats) float64 { return r.norm(r.setup).Seconds() }),
			"calib_ms": sample(d.reps, func(r repStats) float64 { return ms(r.calib) }),
		},
	}
	res.Attempted, res.Failed, res.Problems = d.tally()
	vals := d.metrics()
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		v, ok := vals[def.name]
		if !ok {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Problems = append(res.Problems, fmt.Sprintf("%s is %v", def.name, v))
			v = 0
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0

	if traced {
		dir := filepath.Join(outDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		res.TraceFile = filepath.Join(dir, w.name+".trace.json")
		if err := d.spans.write(res.TraceFile); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	trace := 0
	if traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, trace))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("write result: %w", err)
	}
	return res, nil
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s: seed %d, %d reps (%d deterministic)", r.Workload, r.Seed, r.Reps, r.DetReps)
	if r.Trace {
		fmt.Fprintf(w, " + %d traced", r.TracedReps)
	}
	fmt.Fprintf(w, " in %gs; %d CPUs, GOMAXPROCS %d, %s %s/%s\n", r.Seconds,
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.GOOS, r.Host.GOARCH)
	for _, group := range []struct {
		title string
		defs  []metricDef
	}{{"end to end", endToEnd}, {"per layer", perLayer}} {
		fmt.Fprintf(w, "  %s\n", group.title)
		for _, def := range group.defs {
			if m, ok := r.Metrics[def.name]; ok {
				fmt.Fprintf(w, "    %-28s %14.6g %s\n", def.name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  ops: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for i, p := range r.Problems {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more problems\n", len(r.Problems)-i)
			break
		}
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
}
