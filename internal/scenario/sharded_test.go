package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"omxsim/internal/report"
)

// resultBytes runs a registered scenario and serialises the result.
func resultBytes(t *testing.T, name string, opts Options) []byte {
	t.Helper()
	s, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return scenarioBytes(t, s, opts)
}

// scenarioBytes runs a scenario, fails the test on any failed assertion,
// and serialises the result to the canonical JSON the determinism and
// golden gates compare. encoding/json sorts map keys, so two Results with
// equal content produce identical bytes.
func scenarioBytes(t *testing.T, s *Scenario, opts Options) []byte {
	t.Helper()
	res, err := s.Run(opts)
	if err != nil {
		t.Fatalf("%s (shards=%d): %v", s.Name, opts.Shards, err)
	}
	if res.Failed() {
		for _, a := range res.Assertions {
			if !a.Passed {
				t.Errorf("%s (shards=%d): assertion %q failed: %s", s.Name, opts.Shards, a.Name, a.Detail)
			}
		}
		t.FailNow()
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardCountInvariance is the parallel engine's determinism gate: the
// same seed must produce byte-identical results whether the cluster runs
// on 1, 2, or more shards, and regardless of GOMAXPROCS. Every builtin's
// quick report is replayed on four engine shards against its golden (the
// one-shard bytes TestGoldenReports pins); clusters smaller than four
// nodes clamp to one shard per node. Shards=1 is the serial reference (one
// engine closing its windows inline); higher counts actually run shard
// goroutines concurrently.
func TestShardCountInvariance(t *testing.T) {
	// Layouts beyond the four-shard replay. fleet-stream, the 8-node
	// parallel workload, runs at the other shard counts the benchmark
	// uses. The chaos family runs again at full size against its own
	// one-shard report: the fault schedule is precomputed per cell, so
	// crashes, degrade windows, and budget shrinks land at the same
	// simulated instants on every layout.
	quickShards := map[string][]int{"fleet-stream": {2, 8}}
	fullShards := map[string][]int{
		"chaos-crash-recover": {2, 4},
		"chaos-degraded-link": {4},
		"chaos-budget-shrink": {2},
	}
	for _, s := range All() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(goldenDir, s.Name+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range append([]int{4}, quickShards[s.Name]...) {
				goldenDiff(t, path, fmt.Sprintf("shards=%d", n), want, scenarioBytes(t, s, Options{Quick: true, Shards: n}))
			}
			if shards := fullShards[s.Name]; len(shards) > 0 {
				ref := scenarioBytes(t, s, Options{Shards: 1})
				for _, n := range shards {
					if got := scenarioBytes(t, s, Options{Shards: n}); !bytes.Equal(ref, got) {
						t.Fatalf("%s: full-size shards=%d result differs from shards=1:\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s",
							s.Name, n, ref, n, got)
					}
				}
			}
		})
	}
}

// TestShardGomaxprocsInvariance pins GOMAXPROCS to 1 and re-checks a
// multi-shard run against the unrestricted reference: goroutine scheduling
// must not leak into the results.
func TestShardGomaxprocsInvariance(t *testing.T) {
	opts := Options{Quick: true, Shards: 4}
	ref := resultBytes(t, "fleet-stream", opts)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	got := resultBytes(t, "fleet-stream", opts)
	if !bytes.Equal(ref, got) {
		t.Fatalf("fleet-stream shards=4: GOMAXPROCS=1 result differs from GOMAXPROCS=%d", prev)
	}
}

// TestChaosGomaxprocsInvariance re-runs a chaos scenario — concurrent
// shard goroutines plus injected crashes — with GOMAXPROCS pinned to 1:
// the stress report, per-interval chaos series included, must be
// byte-identical to the unrestricted run.
func TestChaosGomaxprocsInvariance(t *testing.T) {
	opts := Options{Shards: 4}
	ref := resultBytes(t, "chaos-crash-recover", opts)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	got := resultBytes(t, "chaos-crash-recover", opts)
	if !bytes.Equal(ref, got) {
		t.Fatalf("chaos-crash-recover shards=4: GOMAXPROCS=1 result differs from GOMAXPROCS=%d", prev)
	}
}
