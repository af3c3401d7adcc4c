package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func bound(b float64) *float64 { return &b }

var testSpec = benchSpec{
	EndToEnd: []specMetric{
		{Name: "wall_ms.p50", Unit: "ms", Better: "lower", Bound: bound(0.1)},
		{Name: "sim_mibps", Unit: "MiB/s", Better: "higher", Bound: bound(0.02)},
	},
	PerLayer: []specMetric{{Name: "sim.events", Unit: "count", Better: "lower"}},
}

// runs makes one result per value of wall_ms.p50, with fixed sim metrics.
func runs(workload string, mibps float64, walls ...float64) []result {
	var out []result
	for _, w := range walls {
		out = append(out, result{Workload: workload, Metrics: map[string]metric{
			"wall_ms.p50": {w, "ms"}, "sim_mibps": {mibps, "MiB/s"}, "sim.events": {1000, "count"},
		}})
	}
	return out
}

func calls(rows []verdict) map[string]string {
	m := make(map[string]string)
	for _, r := range rows {
		m[r.workload+" "+r.metric] = r.call
	}
	return m
}

func TestCompareVerdicts(t *testing.T) {
	base := append(runs("a", 1000, 100, 101, 99, 100), runs("noisy", 1000, 70, 100, 130, 100)...)
	base = append(base, runs("fast", 1000, 100, 101, 99, 100)...)
	cur := append(runs("a", 970, 120, 121, 119, 120), runs("noisy", 1000, 90, 100, 110, 100)...)
	cur = append(cur, runs("fast", 1010, 60, 61, 59, 60)...)
	cur = append(cur, runs("only-in-b", 1000, 1)...)
	got := calls(compare(testSpec, base, cur))
	want := map[string]string{
		"a wall_ms.p50":     "worse",
		"a sim_mibps":       "worse", // 3% lower, bound 2%
		"a sim.events":      "same",
		"noisy wall_ms.p50": "unresolved",
		"noisy sim_mibps":   "unchanged",
		"noisy sim.events":  "same",
		"fast wall_ms.p50":  "better",
		"fast sim_mibps":    "unchanged",
		"fast sim.events":   "same",
	}
	if len(got) != len(want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %q, want %q", k, got[k], v)
		}
	}
}

func TestCompareNoisyButSeparated(t *testing.T) {
	// Spread wider than the bound, yet every new run beats every old one.
	base := runs("w", 1000, 200, 260, 320, 380)
	cur := runs("w", 1000, 100, 130, 160, 190)
	if got := calls(compare(testSpec, base, cur))["w wall_ms.p50"]; got != "better" {
		t.Errorf("verdict %q, want better", got)
	}
}

func TestCompareSingleRunUsesRepSpread(t *testing.T) {
	steady := runs("w", 1000, 100)
	steady[0].Samples = map[string][]float64{"wall_ms": {99, 100, 100, 101}}
	noisy := runs("w", 1000, 104)
	noisy[0].Samples = map[string][]float64{"wall_ms": {70, 90, 104, 120, 140}}
	if got := calls(compare(testSpec, steady, steady))["w wall_ms.p50"]; got != "unchanged" {
		t.Errorf("steady single runs: %q, want unchanged", got)
	}
	if got := calls(compare(testSpec, steady, noisy))["w wall_ms.p50"]; got != "unresolved" {
		t.Errorf("noisy single run: %q, want unresolved", got)
	}
}

func TestCompareMainReadsDirectoriesAndExitCode(t *testing.T) {
	dir := t.TempDir()
	spec, err := json.Marshal(map[string]any{
		"end_to_end": testSpec.EndToEnd, "per_layer": testSpec.PerLayer,
	})
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(sub string, rs []result) string {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, string(rune('a'+i))+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	a := write("a", runs("w", 1000, 100, 101, 99))
	same := write("same", runs("w", 1000, 100, 102, 98))
	slow := write("slow", runs("w", 1000, 150, 151, 149))
	var out, errOut bytes.Buffer
	if code := compareMain(&out, &errOut, specPath, a, same); code != 0 {
		t.Errorf("same results: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareMain(&out, &errOut, specPath, a, slow); code != 1 {
		t.Errorf("slower results: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("worse")) {
		t.Errorf("slower results not reported worse:\n%s", out.String())
	}
}
