package scenario

import (
	"bytes"
	"testing"

	"omxsim/internal/mpi"
	"omxsim/internal/report"
	"omxsim/internal/sim"
)

// TestDeterministicForFixedSeed: the same scenario and seed must serialise
// to byte-identical JSON (the report carries no wall-clock state and the
// simulation is deterministic).
func TestDeterministicForFixedSeed(t *testing.T) {
	runOnce := func() []byte {
		res, err := RunByName("pincache", Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different results:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestFaultInjectionInvalidateHits runs the registered fault-injection
// scenario and checks the injected free really fired MMU notifiers into
// declared regions.
func TestFaultInjectionInvalidateHits(t *testing.T) {
	res, err := RunByName("faults", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) == 0 {
		t.Fatal("no cases recorded")
	}
	for _, c := range res.Cases {
		if hits := c.Metrics["stats.invalidate_hits"]; hits < 1 {
			t.Errorf("case %s: InvalidateHits = %g, want >= 1 (notes: %v)", c.Label, hits, c.Notes)
		}
	}
	if !res.Passed {
		t.Fatalf("faults scenario failed its assertions: %+v", res.Assertions)
	}
}

// TestFaultPollStopsWhenTargetRankReturns: a buffer fault whose target is
// never registered gives up as soon as its target rank has returned, not
// when the slowest rank does, so neither its note nor the events its polls
// fire depend on other ranks or on the shard layout.
func TestFaultPollStopsWhenTargetRankReturns(t *testing.T) {
	s := &Scenario{
		Name: "fault-poll-target-rank",
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			if c.Rank() == 1 {
				c.Compute(2 * sim.Millisecond)
			}
		},
		Faults: []Fault{{At: 10 * sim.Microsecond, Kind: FaultSwapOut, Rank: 0, Buffer: "never"}},
	}
	const want = "t=10.000us: swapout fault never fired: buffer 0/never was never registered"
	for _, shards := range []int{1, 2} {
		res, err := s.Run(Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Cases[0]
		if len(c.Notes) != 1 || c.Notes[0] != want {
			t.Errorf("shards=%d: notes = %q, want [%q]", shards, c.Notes, want)
		}
		if ev := c.Metrics["stats.events_fired"]; ev != 5 {
			t.Errorf("shards=%d: stats.events_fired = %g, want 5", shards, ev)
		}
	}
}

// TestQuickstartScenario smoke-checks the default-case declarative path:
// one declaration and one pin per side, cache hits afterwards.
func TestQuickstartScenario(t *testing.T) {
	res, err := RunByName("quickstart", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("quickstart failed: %+v", res.Assertions)
	}
	c := res.Cases[0]
	if c.Metrics["stats.pin_ops"] > c.Metrics["stats.declares"]+1 {
		t.Fatalf("pinning not decoupled: pins=%g declares=%g", c.Metrics["stats.pin_ops"], c.Metrics["stats.declares"])
	}
}

// TestSweepTableShape: size-sweep scenarios render the size × case matrix
// of the primary metric.
func TestSweepTableShape(t *testing.T) {
	res, err := RunByName("mixed-policy", Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 3 {
		t.Fatalf("expected 3 cases (one per policy at one quick size), got %d", len(res.Cases))
	}
	if !res.Passed {
		t.Fatalf("mixed-policy failed: %+v", res.Assertions)
	}
	for _, c := range res.Cases {
		if c.Metrics["mbps"] <= 0 {
			t.Fatalf("case %s: no throughput recorded", c.Label)
		}
	}
}

// TestAddStatsFoldsTaggedFields: the stats fold sums every `stat`-tagged
// integer field under its tag, fields sharing a tag add up, and untagged
// fields stay out.
func TestAddStatsFoldsTaggedFields(t *testing.T) {
	type counters struct {
		Sent     uint64 `stat:"misses"`
		Received uint64 `stat:"misses"`
		Bytes    int    `stat:"bytes"`
		Hidden   uint64
	}
	sums := make(map[string]uint64)
	addStats(sums, counters{Sent: 2, Received: 3, Bytes: 7, Hidden: 100})
	addStats(sums, counters{Sent: 1, Bytes: 5})
	if len(sums) != 2 || sums["misses"] != 6 || sums["bytes"] != 12 {
		t.Fatalf("folded %v, want map[bytes:12 misses:6]", sums)
	}
}
