package scenario

import (
	"bytes"
	"regexp"
	"runtime"
	"testing"
)

// TestKVServeShardInvariance is the kvserve family's determinism gate:
// scenario JSON — every HDR percentile included — must be byte-identical
// whatever the shard layout. The histograms' fixed bucket layout makes
// per-rank merges exact, so any divergence here means real nondeterminism
// in the serving path, not rounding.
func TestKVServeShardInvariance(t *testing.T) {
	cases := []struct {
		scenario string
		shards   []int
	}{
		// 4 nodes: the full 1/2/4 sweep the acceptance criteria name.
		{scenario: "kvserve-mix", shards: []int{1, 2, 4}},
		// 2-node scenarios clamp at 2 shards; both run emergent reclaim
		// (kswapd, direct stalls) concurrently with the serving loop.
		{scenario: "kvserve-pressure", shards: []int{1, 2}},
		{scenario: "kvserve-multitenant", shards: []int{1, 2}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scenario, func(t *testing.T) {
			opts := Options{Shards: tc.shards[0]}
			ref := resultBytes(t, tc.scenario, opts)
			if !bytes.Contains(ref, []byte("p999_us")) {
				t.Fatalf("%s: report carries no p999 percentile metrics", tc.scenario)
			}
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

// TestKVServeDefaultMatchesSharded pins the CLI default (shards unset:
// one engine) against two parallel shards: the percentile output a user
// sees from `omxsim run` must equal the sharded runs the gates compare.
func TestKVServeDefaultMatchesSharded(t *testing.T) {
	def := resultBytes(t, "kvserve-mix", Options{})
	sharded := resultBytes(t, "kvserve-mix", Options{Shards: 2})
	if !bytes.Equal(def, sharded) {
		t.Fatalf("kvserve-mix: default result differs from shards=2:\n--- default ---\n%s\n--- shards=2 ---\n%s",
			def, sharded)
	}
}

// TestKVServeGomaxprocsInvariance re-runs a sharded kvserve scenario with
// GOMAXPROCS pinned to 1: goroutine scheduling must not leak into any
// latency bucket.
func TestKVServeGomaxprocsInvariance(t *testing.T) {
	opts := Options{Shards: 2}
	ref := resultBytes(t, "kvserve-multitenant", opts)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	got := resultBytes(t, "kvserve-multitenant", opts)
	if !bytes.Equal(ref, got) {
		t.Fatalf("kvserve-multitenant shards=2: GOMAXPROCS=1 result differs from GOMAXPROCS=%d", prev)
	}
}

// TestKVServeSeedSensitivity guards against the opposite failure: a
// report that is identical across shard counts because it never varies at
// all. A different seed must produce a different schedule.
func TestKVServeSeedSensitivity(t *testing.T) {
	a := resultBytes(t, "kvserve-mix", Options{Shards: 1})
	b := resultBytes(t, "kvserve-mix", Options{Shards: 1, Seed: 99})
	// The seed field differs trivially; compare the bodies without it.
	seedLine := regexp.MustCompile(`"seed": \d+`)
	if seedLine.ReplaceAllString(string(a), "") == seedLine.ReplaceAllString(string(b), "") {
		t.Fatal("kvserve-mix: seeds 1 and 99 produced identical reports")
	}
}
