package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// fingerprint renders everything simulated about a rep.
func fingerprint(r repStats) string {
	o := r.out
	return fmt.Sprint(r.counts, o.attempted, o.failed, o.latNs, o.get.String(), o.get.Mean(),
		o.put.String(), o.put.Mean(), o.xfer, o.kv)
}

// TestWorkloadsDeterministic runs two reps of every workload three times,
// under GOMAXPROCS 1 and 2: the simulated results and every layer count
// must repeat exactly, and must depend on the seed.
func TestWorkloadsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var first []string
			for _, procs := range []int{1, 2, 2} {
				prev := runtime.GOMAXPROCS(procs)
				var got []string
				for seed := int64(1); seed <= 2; seed++ {
					r := runRep(w, seed, nil, nil)
					if r.out.attempted == 0 || r.out.failed != 0 || len(r.out.problems) != 0 {
						t.Fatalf("seed %d: %d of %d ops failed: %v", seed, r.out.failed, r.out.attempted, r.out.problems)
					}
					got = append(got, fingerprint(r))
				}
				runtime.GOMAXPROCS(prev)
				if got[0] == got[1] {
					t.Errorf("seeds 1 and 2 simulate the same thing")
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Errorf("GOMAXPROCS %d: results differ from the first invocation:\n got %v\nwant %v", procs, got, first)
				}
			}
		})
	}
}

// TestTracedRunReportsEveryMetric runs a short traced pingpong and checks
// that it yields every metric, writes a readable trace, and that tracing
// left the simulation alone.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer cells")
	}
	w := workloads[0]
	w.detReps = 2
	d, err := measure(w, 1, 0.001, true)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed, problems := d.tally()
	if attempted == 0 || failed != 0 || len(problems) != 0 {
		t.Fatalf("%d of %d ops failed: %v", failed, attempted, problems)
	}
	m := d.metrics()
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if _, ok := m[def.name]; !ok {
			t.Errorf("metric %s not reported", def.name)
		}
	}
	for _, name := range []string{"wall_ms.p50", "setup_s", "sim_mibps", "sim_p95_us", "vm.pin_ns_per_page", "sim.barrier_ns"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := d.spans.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	seen := make(map[string]bool)
	for _, ev := range tr.TraceEvents {
		seen[ev.Name] = true
	}
	for _, name := range []string{"cluster.New", "Cluster.Run", "Cluster.Close", "Send", "Recv", "cell sim.barrier_ns"} {
		if !seen[name] {
			t.Errorf("trace has no %q span", name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json describes exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		benchSpec
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, list := range []struct {
		spec []specMetric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(list.spec) != len(list.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics where the program reports %d", len(list.spec), len(list.defs))
			continue
		}
		for i, def := range list.defs {
			if s := list.spec[i]; s.Name != def.name || s.Unit != def.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, s.Name, s.Unit, def.name, def.unit)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-compare", "only-one"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run %q: exit %d, want 2", args, code)
		}
	}
}
