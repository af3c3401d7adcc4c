package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func reportWith(ns float64) Report {
	return Report{Benchmarks: []Result{{Name: "SimWallClock", NsPerOp: ns}}}
}

func TestGuardPassesWithinSlack(t *testing.T) {
	if err := Guard(reportWith(20e6), reportWith(18e6), 1.75); err != nil {
		t.Fatalf("guard tripped inside slack: %v", err)
	}
}

func TestGuardTripsOnRegression(t *testing.T) {
	err := Guard(reportWith(40e6), reportWith(18e6), 1.75)
	if err == nil {
		t.Fatal("2.2x regression passed the guard")
	}
	if !strings.Contains(err.Error(), "SimWallClock") {
		t.Fatalf("unhelpful guard error: %v", err)
	}
}

func TestGuardRejectsUnusableBaseline(t *testing.T) {
	if err := Guard(reportWith(20e6), Report{}, 1.75); err == nil {
		t.Fatal("missing baseline measurement accepted")
	}
	if err := Guard(Report{}, reportWith(18e6), 1.75); err == nil {
		t.Fatal("missing current measurement accepted")
	}
}

func reportWithKV(ns, p99 float64) Report {
	r := reportWith(ns)
	r.Benchmarks = append(r.Benchmarks, Result{
		Name:    "KVServeTail",
		NsPerOp: ns,
		Metrics: map[string]float64{"p99_us": p99},
	})
	return r
}

func TestGuardKVServeTail(t *testing.T) {
	// Identical simulated p99: passes.
	if err := Guard(reportWithKV(20e6, 800), reportWithKV(18e6, 800), 1.75); err != nil {
		t.Fatalf("guard tripped on identical simulated tail: %v", err)
	}
	// >5% simulated-tail growth: trips even though wall clock is fine.
	err := Guard(reportWithKV(20e6, 900), reportWithKV(18e6, 800), 1.75)
	if err == nil {
		t.Fatal("12% simulated p99 regression passed the guard")
	}
	if !strings.Contains(err.Error(), "KVServeTail") {
		t.Fatalf("unhelpful guard error: %v", err)
	}
	// Baseline without the cell (pre-kvserve artifacts): not gated.
	if err := Guard(reportWithKV(20e6, 900), reportWith(18e6), 1.75); err != nil {
		t.Fatalf("pre-kvserve baseline should not gate the tail: %v", err)
	}
	// Baseline has the cell, current run lost it: that is an error.
	if err := Guard(reportWith(20e6), reportWithKV(18e6, 800), 1.75); err == nil {
		t.Fatal("dropped KVServeTail measurement passed the guard")
	}
}

func TestGuardAgainstCheckedInArtifact(t *testing.T) {
	prior, err := LoadReport("../../BENCH_PR2.json")
	if err != nil {
		t.Fatalf("checked-in artifact unreadable: %v", err)
	}
	if _, ok := func() (Result, bool) {
		for _, b := range prior.Benchmarks {
			if b.Name == "SimWallClock" {
				return b, true
			}
		}
		return Result{}, false
	}(); !ok {
		t.Fatal("BENCH_PR2.json lost its SimWallClock entry — the CI guard would be vacuous")
	}
}

// TestGuardAcceptsNullParallelSpeedup: an artifact from a one-CPU host
// writes parallel_speedup as null; it must load and gate like any other.
func TestGuardAcceptsNullParallelSpeedup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	prior := Report{NumCPU: 1, GoMaxProcs: 1, GoVersion: "go1.24", Benchmarks: []Result{
		{Name: "SimWallClock", NsPerOp: 18e6},
		{Name: "SimWallClockParallel", NsPerOp: 30e6, Metrics: map[string]float64{"shards": 1}},
	}}
	var buf bytes.Buffer
	if err := prior.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"parallel_speedup": null`) {
		t.Fatalf("one-CPU artifact does not write parallel_speedup as null:\n%s", buf.String())
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(path)
	if err != nil {
		t.Fatalf("null parallel_speedup rejected: %v", err)
	}
	if loaded.ParallelSpeedup != nil || loaded.NumCPU != 1 || loaded.GoVersion != "go1.24" {
		t.Fatalf("host metadata did not round-trip: %+v", loaded)
	}
	speedup := 1.8
	cur := loaded
	cur.NumCPU, cur.ParallelSpeedup = 4, &speedup
	if err := Guard(cur, loaded, 1.75); err != nil {
		t.Fatalf("guard rejected a null-speedup baseline: %v", err)
	}
	if err := Guard(loaded, cur, 1.75); err != nil {
		t.Fatalf("guard rejected a null-speedup current run: %v", err)
	}
}
