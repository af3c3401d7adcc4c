package scenario

import (
	"bytes"
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
// on 1, 2, or more shards, and regardless of GOMAXPROCS. Shards=1 is the
// serial reference (one engine closing its windows inline); higher counts
// actually run shard goroutines concurrently.
func TestShardCountInvariance(t *testing.T) {
	cases := []struct {
		scenario string
		shards   []int
		opts     Options
	}{
		// pressure-policies exercises daemons (kswapd), reclaim, swap and
		// four pinning backends on 2 nodes: shards 1 vs 2.
		{scenario: "pressure-policies", shards: []int{1, 2}, opts: Options{Quick: true}},
		// fleet-stream is the 8-node parallel workload: sweep the shard
		// counts the benchmark uses.
		{scenario: "fleet-stream", shards: []int{1, 2, 4, 8}, opts: Options{Quick: true}},
		// The chaos family must stay invariant too: the fault schedule is
		// precomputed per cell, so crashes, degrade windows, and budget
		// shrinks land at the same simulated instants on every layout.
		{scenario: "chaos-crash-recover", shards: []int{1, 2, 4}},
		{scenario: "chaos-degraded-link", shards: []int{1, 4}},
		{scenario: "chaos-budget-shrink", shards: []int{1, 2}},
		// Fault injectors on different nodes fire at the same instant on
		// different shards; their notes must still come out in one order:
		// a fork of both ranks at once, and buffer-polling swap-outs whose
		// polls coincide.
		{scenario: "policy-fork", shards: []int{1, 2, 4}, opts: Options{Quick: true}},
		{scenario: "policy-swapout", shards: []int{1, 2, 4}, opts: Options{Quick: true}},
		// The paper's Table 1, §4.3 and NPB runs: one-node pin timing
		// cells, interrupt floods armed per node on each node's own
		// engine, and four ranks over two nodes.
		{scenario: "pinbench", shards: []int{1, 2}},
		{scenario: "overlapmiss", shards: []int{1, 2}, opts: Options{Quick: true}},
		{scenario: "overload", shards: []int{1, 2}, opts: Options{Quick: true}},
		{scenario: "npbis", shards: []int{1, 2}, opts: Options{Quick: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scenario, func(t *testing.T) {
			opts := tc.opts
			opts.Shards = tc.shards[0]
			ref := resultBytes(t, tc.scenario, opts)
			for _, n := range tc.shards[1:] {
				opts.Shards = n
				got := resultBytes(t, tc.scenario, opts)
				if !bytes.Equal(ref, got) {
					t.Fatalf("%s: shards=%d result differs from shards=%d reference:\n--- shards=%d ---\n%s\n--- shards=%d ---\n%s",
						tc.scenario, n, tc.shards[0], tc.shards[0], ref, n, got)
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
