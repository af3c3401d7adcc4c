package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"omxsim/internal/chaos"
	"omxsim/internal/cluster"
	"omxsim/internal/ethernet"
	"omxsim/internal/kv"
	"omxsim/internal/omx"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
)

// errLine returns the line of an error that starts with `file:<line>:`,
// and whether it does so with a line >= 1.
func errLine(err error, file string) (int, bool) {
	rest, ok := strings.CutPrefix(err.Error(), file+":")
	if !ok {
		return 0, false
	}
	num, _, ok := strings.Cut(rest, ":")
	line, convErr := strconv.Atoi(num)
	return line, ok && convErr == nil && line >= 1
}

// specErrAt loads src and demands an error at test.yaml:<line>: (any
// line >= 1 when line is 0) mentioning every fragment.
func specErrAt(t *testing.T, src string, line int, fragments ...string) {
	t.Helper()
	_, err := LoadSpecData([]byte(src), "test.yaml")
	if err == nil {
		t.Fatalf("spec accepted, want error containing %q:\n%s", fragments, src)
	}
	if got, ok := errLine(err, "test.yaml"); !ok || (line > 0 && got != line) {
		t.Fatalf("error %q: want the prefix test.yaml:%d:", err, line)
	}
	for _, f := range fragments {
		if !strings.Contains(err.Error(), f) {
			t.Fatalf("error %q does not mention %q", err, f)
		}
	}
}

// parseErr is specErrAt at whatever line the error names.
func parseErr(t *testing.T, src string, fragments ...string) {
	t.Helper()
	specErrAt(t, src, 0, fragments...)
}

const minimalSpec = `name: t-spec
description: test
cases:
  - label: cache
    policy: on-demand
    cache: true
sizes: [64KiB]
metric: mbps
workload:
  kind: pingpong
assertions:
  - positive: mbps
  - completed: true
`

func TestParseSpecMinimal(t *testing.T) {
	s, err := LoadSpecData([]byte(minimalSpec), "test.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t-spec" || len(s.Cases) != 1 || s.Cases[0].Label != "cache" {
		t.Fatalf("loaded scenario wrong: %+v", s)
	}
	if len(s.Sizes) != 1 || s.Sizes[0] != 64*1024 {
		t.Fatalf("sizes wrong: %v", s.Sizes)
	}
	if len(s.Assertions) != 2 {
		t.Fatalf("assertions wrong: %d", len(s.Assertions))
	}
}

func TestParseSpecStrictness(t *testing.T) {
	parseErr(t, "name: x\nbogus: 1\n", `unknown field "bogus"`, "top-level fields")
	parseErr(t, strings.Replace(minimalSpec, "policy: on-demand", "policy: magic", 1),
		`unknown policy "magic"`, "pin-each-comm")
	parseErr(t, strings.Replace(minimalSpec, "cache: true", "turbo: true", 1),
		`unknown field "turbo"`)
	parseErr(t, strings.Replace(minimalSpec, "- completed: true",
		"- label: cache\n    policy: odp", 1), "no type key")
	parseErr(t, strings.Replace(minimalSpec, "- completed: true",
		"- completed: true\n    positive: mbps", 1), "exactly one assertion")
	parseErr(t, strings.Replace(minimalSpec, "- completed: true",
		"- check: no-such-check", 1), `unknown check "no-such-check"`, "emergent-steals")
	parseErr(t, strings.Replace(minimalSpec, "- completed: true",
		"- at_least: mbps", 1), "needs a `value` field")
	parseErr(t, strings.Replace(minimalSpec, "- completed: true",
		"- slo: t0\n    p99_us: 10", 1), "SLO assertions need a kv workload")
}

func TestParseSpecDuplicateCaseLabel(t *testing.T) {
	src := `name: t-dupcase
cases:
  - label: cache
    policy: on-demand
  - label: cache
    policy: odp
sizes: [64KiB]
workload:
  kind: pingpong
`
	parseErr(t, src, "duplicate case label")
}

func TestParseSpecRequiresSizesForSweepWorkloads(t *testing.T) {
	src := `name: t-nosizes
cases:
  - label: cache
    policy: on-demand
workload:
  kind: pingpong
`
	parseErr(t, src, "add a `sizes` list")
}

func TestParseSpecClusterFleetExclusive(t *testing.T) {
	src := `name: t-both
cluster:
  nodes: 2
fleet:
  total_nodes: 8
  groups:
    - name: all
      weight: 1
workload:
  kind: pressure
  rounds: 1
  comm_bytes: 64KiB
  churn_bytes: 64KiB
`
	parseErr(t, src, "sets both `cluster`", "and `fleet`")
}

func TestParseSpecSLOTenantCrossReference(t *testing.T) {
	src := `name: t-slo
cluster:
  nodes: 4
cases:
  - label: cache
    policy: on-demand
    cache: true
workload:
  kind: kv
  servers: 2
  keys: 8
  value_bytes: 4KiB
  tenants:
    - name: t0
      ops: 10
      rate: 1000
assertions:
  - slo: nobody
    p99_us: 100
`
	parseErr(t, src, `slo "nobody"`, "tenants: t0")
}

// TestFleetResolve checks the weight allocation: fixed counts are taken
// first, the remainder splits by weight with largest-remainder rounding,
// and the group order decides ties — all deterministic.
func TestFleetResolve(t *testing.T) {
	f := &fleetSpec{
		total: 100,
		groups: []fleetGroup{
			{NodeGroup: cluster.NodeGroup{Name: "compute"}, weight: 3},
			{NodeGroup: cluster.NodeGroup{Name: "storage"}, weight: 1},
			{NodeGroup: cluster.NodeGroup{Name: "infra", Nodes: 4}},
		},
	}
	groups, err := f.resolve(&dec{file: "test.yaml"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	total := 0
	for _, g := range groups {
		got[g.Name] = g.Nodes
		total += g.Nodes
	}
	if total != 100 {
		t.Fatalf("resolved %d nodes, want 100: %v", total, got)
	}
	if got["infra"] != 4 || got["compute"] != 72 || got["storage"] != 24 {
		t.Fatalf("allocation wrong: %v", got)
	}
}

// TestSpecRejectsRunTimeMisfires covers specs that used to validate and
// then crashed or misfired at run time: each must now fail to load, at
// the line that names the bad value.
func TestSpecRejectsRunTimeMisfires(t *testing.T) {
	withCluster := func(field string) string {
		return strings.Replace(minimalSpec, "cases:", "cluster:\n  "+field+"\ncases:", 1)
	}
	chaosSpec := `name: t-chaos-nodes
cluster:
  nodes: 2
cases:
  - label: cache
    policy: on-demand
workload:
  kind: chaos-pingpong
  rounds: 2
  bytes: 64KiB
  recv_timeout_us: 1000
chaos:
  horizon_us: 1000
  specs:
    - class: node-crash
      mean_gap_us: 100
      nodes: [0, 7]
`
	for _, tc := range []struct {
		name, src string
		line      int
		fragments []string
	}{
		// armChaos indexed a node the cluster does not have.
		{"chaos-node-out-of-range", chaosSpec, 17, []string{"chaos.nodes: 7 is out of range", "2 nodes"}},
		// cluster.New panicked making a negative-length node slice.
		{"negative-nodes", withCluster("nodes: -1"), 4, []string{"cluster.nodes: -1 is out of range"}},
		// Zero ranks ran and every assertion passed vacuously.
		{"negative-ranks-per-node", withCluster("ranks_per_node: -2"), 4, []string{"cluster.ranks_per_node: -2 is out of range"}},
		// A zero-latency link gives the engine no lookahead window:
		// cluster.New refused it only when the scenario ran.
		{"zero-link-latency", withCluster("link:\n    prop_delay_us: 0"), 5, []string{"cluster.link.prop_delay_us: 0 is below 1ns"}},
		{"sub-ns-link-latency", withCluster("link:\n    prop_delay_us: 0.0001"), 5, []string{"cluster.link.prop_delay_us: 0.0001 is below 1ns"}},
		{"negative-link-latency", withCluster("link:\n    prop_delay_us: -2"), 5, []string{"cluster.link.prop_delay_us: -2 is below 1ns"}},
		// Out-of-range fault targets only left a note in the report.
		{"fault-node-out-of-range", minimalSpec + "faults:\n  - at_us: 10\n    kind: crash\n    node: 99\n", 17,
			[]string{"fault.node: 99 is out of range", "2 nodes"}},
		{"fault-rank-out-of-range", minimalSpec + "faults:\n  - at_us: 10\n    kind: free\n    rank: 99\n    buffer: x\n", 17,
			[]string{"fault.rank: 99 is out of range", "2 ranks"}},
		// A zero rate made every arrival gap infinite: the client issued
		// all its ops at once and timed them from bogus instants.
		{"kv-tenant-without-rate", kvRateSpec(""), 14, []string{`tenant "t0": rate must be > 0`}},
		{"kv-tenant-zero-rate", kvRateSpec("\n      rate: 0"), 16, []string{`tenant "t0": rate must be > 0`}},
		// A negative flood utilization panicked the run with a negative
		// work duration.
		{"flood-negative-util", minimalSpec + "faults:\n  - at_us: 10\n    kind: flood\n    util: -0.5\n    for_us: 100\n", 17,
			[]string{"fault.util: -0.5 is out of range (0..1)"}},
		{"flood-util-above-one", minimalSpec + "faults:\n  - at_us: 10\n    kind: flood\n    util: 1.5\n    for_us: 100\n", 17,
			[]string{"fault.util: 1.5 is out of range (0..1)"}},
		// A non-positive link bandwidth panicked ethernet.NewFabric.
		{"cluster-zero-bandwidth", withCluster("link:\n    bytes_per_sec: 0"), 5, []string{"cluster.link.bytes_per_sec: 0 must be > 0"}},
		{"fleet-negative-bandwidth", fleetBandwidthSpec, 5, []string{"fleet.link.bytes_per_sec: -5 must be > 0"}},
		// kv.Run panicked when the servers left no rank to be a client.
		{"kv-servers-cover-every-rank", strings.Replace(kvSpec, "servers: 1", "servers: 2", 1), 10,
			[]string{"workload.servers: 2 leaves no client rank", "2 ranks"}},
		// A value shorter than its 8-byte signature panicked the server's
		// heap fill with a slice-bounds error.
		{"kv-value-below-signature", strings.Replace(kvSpec, "value_bytes: 4KiB", "value_bytes: 7", 1), 12,
			[]string{"workload.value_bytes: 7 bytes is below the 8-byte minimum"}},
		{"kv-swept-value-below-signature", strings.Replace(kvSpec, "  value_bytes: 4KiB\n", "", 1) + "sizes:\n  - 64KiB\n  - 4\n", 18,
			[]string{`sizes: 4 bytes is below the 8-byte minimum of workload kind "kv"`}},
		// A zero sweep size made every pairwise-stream rank malloc(0).
		{"stream-zero-size", streamSizeSpec, 8,
			[]string{`quick_sizes: 0 bytes is below the 1-byte minimum of workload kind "pairwise-stream"`}},
	} {
		t.Run(tc.name, func(t *testing.T) { specErrAt(t, tc.src, tc.line, tc.fragments...) })
	}
}

// fleetBandwidthSpec gives its fleet link a negative bandwidth.
const fleetBandwidthSpec = `name: t-fleet-bw
fleet:
  total_nodes: 4
  link:
    bytes_per_sec: -5
  groups:
    - name: a
      weight: 1
cases:
  - label: cache
    policy: on-demand
sizes: [64KiB]
workload:
  kind: pairwise-stream
  rounds: 1
`

// streamSizeSpec sweeps pairwise-stream over a zero size under -quick.
const streamSizeSpec = `name: t-stream-size
cluster:
  nodes: 2
cases:
  - label: cache
    policy: on-demand
sizes: [64KiB]
quick_sizes: [0]
workload:
  kind: pairwise-stream
  rounds: 2
`

// kvSpec is a valid one-tenant kv spec on two single-rank nodes.
var kvSpec = kvRateSpec("\n      rate: 1000")

// kvRateSpec is a one-tenant kv spec whose tenant block ends with rate.
func kvRateSpec(rate string) string {
	return `name: t-kv-rate
cluster:
  nodes: 2
cases:
  - label: cache
    policy: on-demand
    cache: true
workload:
  kind: kv
  servers: 1
  keys: 8
  value_bytes: 4KiB
  tenants:
    - name: t0
      ops: 20` + rate + "\n"
}

// TestFleetErrorLines checks that fleet errors found after decoding name
// the line of the group or fleet block at fault.
func TestFleetErrorLines(t *testing.T) {
	fleet := func(groups string) string {
		return "name: t-fleet\nfleet:\n  total_nodes: 4\n  groups:\n" + groups +
			"workload:\n  kind: pressure\n  rounds: 1\n  comm_bytes: 64KiB\n  churn_bytes: 64KiB\n"
	}
	specErrAt(t, fleet("    - name: a\n      weight: 1\n    - name: a\n      weight: 1\n"), 7,
		`fleet group "a": duplicate group name`)
	specErrAt(t, fleet("    - name: a\n      nodes: 5\n"), 3, "explicit group nodes (5) exceed total_nodes (4)")
	specErrAt(t, fleet("    - name: a\n      nodes: 2\n"), 3, "do not cover total_nodes (4)")
	specErrAt(t, fleet("    - name: big\n      weight: 1000\n    - name: tiny\n      weight: 1\n"), 7,
		`fleet group "tiny" resolves to 0 nodes`)
	specErrAt(t, fleet("    - name: a\n      weight: 1\n      ranks_per_node: -2\n"), 7,
		"group.ranks_per_node: -2 is out of range")
	// Counts past maxCount used to overflow the weight allocation, which
	// then spun for ~2^62 rounds inside `omxsim validate`.
	specErrAt(t, strings.Replace(fleet("    - name: a\n      weight: 3\n    - name: b\n      weight: 1\n"),
		"total_nodes: 4", "total_nodes: 4611686018427387904", 1), 3, "fleet.total_nodes: 4611686018427387904 is out of range")
}

// TestStartupDelayDeterministic checks the startup schedule is a pure
// function of (spec, node, total, seed) and stays inside its spread.
func TestStartupDelayDeterministic(t *testing.T) {
	st := startupSpec{pattern: startWave, spread: 1000, waves: 4, jitter: 0.5}
	for node := 0; node < 16; node++ {
		a := startupDelay(st, node, 16, 42)
		b := startupDelay(st, node, 16, 42)
		if a != b {
			t.Fatalf("node %d: delay not deterministic (%v vs %v)", node, a, b)
		}
		if a < 0 {
			t.Fatalf("node %d: negative delay %v", node, a)
		}
	}
	if startupDelay(st, 0, 16, 42) == startupDelay(st, 0, 16, 43) {
		t.Fatal("jitter ignores the seed")
	}
	// Waves must actually stagger: the last node starts after the first.
	if startupDelay(startupSpec{pattern: startWave, spread: 1000, waves: 4}, 15, 16, 1) <=
		startupDelay(startupSpec{pattern: startWave, spread: 1000, waves: 4}, 0, 16, 1) {
		t.Fatal("wave pattern does not stagger")
	}
}

func TestLoadAndRegisterSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t-file-spec.yaml")
	src := strings.Replace(minimalSpec, "name: t-spec", "name: t-file-spec", 1)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadAndRegisterSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer unregister("t-file-spec")
	if s.Source != SourceFile {
		t.Fatalf("source = %q, want %q", s.Source, SourceFile)
	}
	if _, ok := Get("t-file-spec"); !ok {
		t.Fatal("spec file not registered")
	}
	// Shadowing a registered name is a hard error.
	if _, err := LoadAndRegisterSpecFile(path); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("shadowing registration not rejected: %v", err)
	}
}

func TestValidateSpecFileCollision(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clash.yaml")
	src := strings.Replace(minimalSpec, "name: t-spec", "name: pingpong", 1)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateSpecFile(path); err == nil ||
		!strings.Contains(err.Error(), "collides") {
		t.Fatalf("registry collision not reported: %v", err)
	}
}

// FuzzLoadSpec feeds arbitrary documents through the spec loader:
// loading never panics, and every rejection starts with `<file>:<line>:`
// at a real line. The embedded specs and the example spec files seed the
// corpus.
func FuzzLoadSpec(f *testing.F) {
	var paths []string
	for _, pattern := range []string{"specs/*.yaml", "../../examples/*.yaml"} {
		matches, err := filepath.Glob(filepath.FromSlash(pattern))
		if err != nil {
			f.Fatal(err)
		}
		paths = append(paths, matches...)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if _, err := LoadSpecData(src, "fuzz.yaml"); err != nil {
			if _, ok := errLine(err, "fuzz.yaml"); !ok {
				t.Fatalf("error lacks a fuzz.yaml:<line>: prefix: %v", err)
			}
		}
	})
}

// everyKeySpec sets every key of a cluster-shaped kv spec to a distinct
// value; everyFleetKeySpec and everyKindSpecs cover the fleet and the
// other workload kinds.
const everyKeySpec = `name: t-every-key
description: every accepted key
cluster:
  nodes: 3
  ranks_per_node: 2
  ranks_per_proc: 2
  endpoints_per_node: 5
  nic_queues: 4
  mem_frames: 640
  link:
    prop_delay_us: 3
    bytes_per_sec: 2.5e9
    drop_prob: 0.01
cases:
  - label: odp
    policy: odp
    cache: true
    use_ioat: true
    retransmit_timeout_us: 300
    peer_dead_timeout_us: 4000
    pinned_page_limit: 4096
    params:
      advise: "1"
  - label: on-demand
    policy: on-demand
sizes: [64KiB, 1MiB]
quick_sizes: [32KiB]
metric: kv.get.p99_us
workload:
  kind: kv
  servers: 2
  keys: 64
  value_bytes: 4KiB
  theta: 0.9
  workers: 3
  churn_bytes: 2MiB
  churn_period_us: 150
  replication: 2
  failover_timeout_us: 5000
  outage_start_us: 100
  outage_end_us: 900
  tenants:
    - name: premium
      ops: 40
      rate: 2000
      get_frac: 0.8
      max_inflight: 6
budget_us: 50000
faults:
  - at_us: 10
    kind: swapout
    rank: 5
    buffer: comm
    util: 0.5
    for_us: 20
    node: 1
    frames: 128
    extra_latency_us: 7
    bandwidth_factor: 0.25
    drop_prob: 0.1
chaos:
  horizon_us: 3000
  interval_us: 500
  specs:
    - class: budget-shrink
      arrival: burst
      mean_gap_us: 700
      jitter: 0.2
      duration_us: 300
      duration_jitter: 0.35
      burst_len: 8
      nodes: [0, 2]
      extra_latency_us: 15
      bandwidth_factor: 0.4
      drop_prob: 0.05
      shrink_factor: 0.6
      frames: 96
assertions:
  - completed: true
  - pin_accounting: true
  - positive: ops_ok
  - at_least: stats.chaos_faults
    value: 11
  - below: ops_rejected
    value: 0.75
  - check: kv-clean-run
  - slo: premium
    p50_us: 100
    p99_us: 200
    p999_us: 300
    max_reject_frac: 0.45
    min_rejects: 12
  - tail_differential: kv.get.p999_us
    pinned: on-demand
    odp: odp
    factor: 1.5
`

const everyFleetKeySpec = `name: t-every-fleet-key
fleet:
  total_nodes: 10
  link:
    prop_delay_us: 4
    bytes_per_sec: 3e9
    drop_prob: 0.02
  groups:
    - name: compute
      weight: 3
      ranks_per_node: 2
      endpoints_per_node: 3
      nic_queues: 4
      mem_frames: 256
    - name: infra
      nodes: 2
  startup:
    pattern: wave
    spread_us: 2000
    waves: 5
    jitter: 0.3
cases:
  - label: cache
    policy: on-demand
sizes: [64KiB]
workload:
  kind: pairwise-stream
  rounds: 7
  quick_rounds: 3
`

// everyKindSpecs holds a spec per remaining workload kind, each setting
// every key of its kind.
var everyKindSpecs = map[string]string{
	"pingpong":       "name: t-pp\nsizes: [64KiB]\nworkload:\n  kind: pingpong\n",
	"chaos-pingpong": "name: t-cpp\nworkload:\n  kind: chaos-pingpong\n  rounds: 6\n  quick_rounds: 2\n  bytes: 48KiB\n  recv_timeout_us: 900\n",
	"pressure":       "name: t-pr\nworkload:\n  kind: pressure\n  rounds: 5\n  comm_bytes: 96KiB\n  churn_bytes: 3MiB\n  churn_compute_us: 40\n",
}

func mustLoadSpec(t *testing.T, src string) *dec {
	t.Helper()
	d, err := loadSpec([]byte(src), "test.yaml")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func wantEqual(t *testing.T, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestSpecEveryKeyLands loads fixtures that set every accepted key to a
// distinct value and checks each value in the field it must reach.
func TestSpecEveryKeyLands(t *testing.T) {
	us := func(v float64) sim.Duration { return sim.Duration(v * float64(sim.Microsecond)) }
	d := mustLoadSpec(t, everyKeySpec)
	s := d.s
	wantEqual(t, "name", s.Name, "t-every-key")
	wantEqual(t, "description", s.Description, "every accepted key")

	link := ethernet.DefaultLinkConfig()
	link.PropDelay, link.BytesPerSec, link.DropProb = us(3), 2.5e9, 0.01
	cl := cluster.Config{Nodes: 3, RanksPerNode: 2, RanksPerProc: 2, EndpointsPerNode: 5, NICQueues: 4, Link: &link}
	cl.Mem.Frames = 640
	wantEqual(t, "cluster", s.Cluster, cl)

	odp := omx.DefaultConfig(policy.ODP, true)
	odp.UseIOAT = true
	odp.RetransmitTimeout, odp.PeerDeadTimeout, odp.PinnedPageLimit = us(300), us(4000), 4096
	wantEqual(t, "cases", s.Cases, []Case{
		{Label: "odp", OMX: odp, Params: map[string]string{"advise": "1"}},
		{Label: "on-demand", OMX: omx.DefaultConfig(policy.OnDemand, false)},
	})
	wantEqual(t, "sizes", s.Sizes, []int{64 << 10, 1 << 20})
	wantEqual(t, "quick_sizes", s.QuickSizes, []int{32 << 10})
	wantEqual(t, "metric", s.Metric, "kv.get.p99_us")
	wantEqual(t, "budget", s.Budget, us(50000))
	wantEqual(t, "kv workload", d.work.kv, kv.Config{
		Servers: 2, Keys: 64, ValueBytes: 4 << 10, Theta: 0.9, Workers: 3,
		Tenants:    []kv.Tenant{{Name: "premium", Ops: 40, Rate: 2000, GetFrac: 0.8, MaxInflight: 6}},
		ChurnBytes: 2 << 20, ChurnPeriod: us(150), Replication: 2, FailoverTimeout: us(5000),
		OutageStart: us(100), OutageEnd: us(900),
	})
	if s.Workload == nil || s.Report == nil {
		t.Error("kv workload or report hook not set")
	}
	wantEqual(t, "faults", s.Faults, []Fault{{
		At: us(10), Kind: FaultSwapOut, Rank: 5, Buffer: "comm", Util: 0.5, For: us(20), Node: 1, Frames: 128,
		Degrade: ethernet.Degrade{ExtraLatency: us(7), BandwidthFactor: 0.25, DropProb: 0.1},
	}})
	wantEqual(t, "chaos", *s.Chaos, chaos.Profile{Horizon: us(3000), Interval: us(500), Specs: []chaos.Spec{{
		Class: chaos.BudgetShrink, Arrival: chaos.Burst, MeanGap: us(700), Jitter: 0.2,
		Duration: us(300), DurationJitter: 0.35, BurstLen: 8, Nodes: []int{0, 2},
		ExtraLatency: us(15), BandwidthFactor: 0.4, DropProb: 0.05, ShrinkFactor: 0.6, Frames: 96,
	}}})
	slo := KVSLO{Tenant: "premium", P50US: 100, P99US: 200, P999US: 300, MaxRejectFrac: 0.45, MinRejects: 12}
	wantEqual(t, "slo", d.sloRefs[0].slo, slo)
	var got, want []string
	for _, a := range s.Assertions {
		got = append(got, a.Name)
	}
	for _, a := range append([]Assertion{
		Completed(), PinAccountingBalanced(), MetricPositive("ops_ok"),
		MetricAtLeast("stats.chaos_faults", 11), MetricBelow("ops_rejected", 0.75), kvCleanRun(),
	}, append(KVSLOBlock(slo), kvTailDifferential("kv.get.p999_us", "on-demand", "odp", 1.5))...) {
		want = append(want, a.Name)
	}
	wantEqual(t, "assertions", got, want)

	d = mustLoadSpec(t, everyFleetKeySpec)
	fleetLink := ethernet.DefaultLinkConfig()
	fleetLink.PropDelay, fleetLink.BytesPerSec, fleetLink.DropProb = us(4), 3e9, 0.02
	wantEqual(t, "fleet link", d.s.Cluster.Link, &fleetLink)
	compute := cluster.NodeGroup{Name: "compute", Nodes: 8, RanksPerNode: 2, EndpointsPerNode: 3, NICQueues: 4}
	compute.Mem.Frames = 256
	wantEqual(t, "fleet groups", d.s.Cluster.Groups, []cluster.NodeGroup{compute, {Name: "infra", Nodes: 2, RanksPerNode: 1}})
	wantEqual(t, "fleet total", d.fleet.total, 10)
	wantEqual(t, "fleet startup", d.fleet.startup, startupSpec{pattern: startWave, spread: us(2000), waves: 5, jitter: 0.3})
	wantEqual(t, "pairwise-stream rounds", [2]int{d.work.rounds, d.work.quickRounds}, [2]int{7, 3})

	d = mustLoadSpec(t, everyKindSpecs["chaos-pingpong"])
	wantEqual(t, "chaos-pingpong", [4]any{d.work.rounds, d.work.quickRounds, d.work.bytes, d.work.recvTimeout},
		[4]any{6, 2, byteSize(48 << 10), us(900)})
	d = mustLoadSpec(t, everyKindSpecs["pressure"])
	wantEqual(t, "pressure", [4]any{d.work.rounds, d.work.commBytes, d.work.churnBytes, d.work.churnCompute},
		[4]any{5, byteSize(96 << 10), byteSize(3 << 20), us(40)})
	if d = mustLoadSpec(t, everyKindSpecs["pingpong"]); !d.work.needsSizes {
		t.Error("pingpong does not read the sweep")
	}
}

// insertAfter inserts `bogus: 1` after the line of src equal to after, at
// the indentation of after's keys, and returns the source and its line.
func insertAfter(t *testing.T, src, after string) (string, int) {
	t.Helper()
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		if l != after {
			continue
		}
		indent := len(l) - len(strings.TrimLeft(l, " "))
		if strings.HasPrefix(strings.TrimLeft(l, " "), "- ") {
			indent += 2
		}
		out := append(append(append([]string{}, lines[:i+1]...), strings.Repeat(" ", indent)+"bogus: 1"), lines[i+1:]...)
		return strings.Join(out, "\n"), i + 2
	}
	t.Fatalf("no line %q", after)
	return "", 0
}

// TestSpecUnknownKeyListsEveryField checks, for every mapping section,
// that an unknown key fails at its line, names the section and lists
// every key the section accepts.
func TestSpecUnknownKeyListsEveryField(t *testing.T) {
	for _, tc := range []struct {
		section, src, after, fields string
	}{
		{"top-level", everyKeySpec, "name: t-every-key",
			"name, description, cluster, fleet, cases, sizes, quick_sizes, metric, workload, budget_us, faults, chaos, assertions"},
		{"cluster", everyKeySpec, "  nodes: 3",
			"nodes, ranks_per_node, ranks_per_proc, endpoints_per_node, nic_queues, mem_frames, link"},
		{"cluster.link", everyKeySpec, "    prop_delay_us: 3", "prop_delay_us, bytes_per_sec, drop_prob"},
		{"fleet", everyFleetKeySpec, "  total_nodes: 10", "total_nodes, link, groups, startup"},
		{"fleet.link", everyFleetKeySpec, "    prop_delay_us: 4", "prop_delay_us, bytes_per_sec, drop_prob"},
		{"fleet group", everyFleetKeySpec, "      weight: 3",
			"name, weight, nodes, ranks_per_node, endpoints_per_node, nic_queues, mem_frames"},
		{"fleet.startup", everyFleetKeySpec, "    pattern: wave", "pattern, spread_us, waves, jitter"},
		{"case", everyKeySpec, "    policy: odp",
			"label, policy, cache, use_ioat, retransmit_timeout_us, peer_dead_timeout_us, pinned_page_limit, params"},
		{"fault", everyKeySpec, "    kind: swapout",
			"at_us, kind, rank, buffer, util, for_us, node, frames, extra_latency_us, bandwidth_factor, drop_prob"},
		{"chaos", everyKeySpec, "  horizon_us: 3000", "horizon_us, interval_us, specs"},
		{"chaos spec", everyKeySpec, "      arrival: burst",
			"class, arrival, mean_gap_us, jitter, duration_us, duration_jitter, burst_len, nodes, extra_latency_us, bandwidth_factor, drop_prob, shrink_factor, frames"},
		{"workload kv", everyKeySpec, "  kind: kv",
			"kind, servers, keys, value_bytes, theta, workers, churn_bytes, churn_period_us, replication, failover_timeout_us, outage_start_us, outage_end_us, tenants"},
		{"tenant", everyKeySpec, "      rate: 2000", "name, ops, rate, get_frac, max_inflight"},
		{"workload pairwise-stream", everyFleetKeySpec, "  kind: pairwise-stream", "kind, rounds, quick_rounds"},
		{"workload pingpong", everyKindSpecs["pingpong"], "  kind: pingpong", "kind"},
		{"workload chaos-pingpong", everyKindSpecs["chaos-pingpong"], "  kind: chaos-pingpong", "kind, rounds, quick_rounds, bytes, recv_timeout_us"},
		{"workload pressure", everyKindSpecs["pressure"], "  kind: pressure", "kind, rounds, comm_bytes, churn_bytes, churn_compute_us"},
		{"assertion", everyKeySpec, "  - completed: true", "completed"},
		{"assertion", everyKeySpec, "  - pin_accounting: true", "pin_accounting"},
		{"assertion", everyKeySpec, "  - positive: ops_ok", "positive"},
		{"assertion", everyKeySpec, "  - at_least: stats.chaos_faults", "at_least, value"},
		{"assertion", everyKeySpec, "  - below: ops_rejected", "below, value"},
		{"assertion", everyKeySpec, "  - check: kv-clean-run", "check"},
		{"assertion", everyKeySpec, "  - slo: premium", "slo, p50_us, p99_us, p999_us, max_reject_frac, min_rejects"},
		{"assertion", everyKeySpec, "  - tail_differential: kv.get.p999_us", "tail_differential, pinned, odp, factor"},
	} {
		t.Run(strings.TrimLeft(tc.after, " -"), func(t *testing.T) {
			src, line := insertAfter(t, tc.src, tc.after)
			specErrAt(t, src, line, fmt.Sprintf(`unknown field "bogus" (%s fields: %s)`, tc.section, tc.fields))
		})
	}
}

// TestSpecUnknownNameListsEveryName checks that an unknown enum name
// fails at its line and lists every accepted name.
func TestSpecUnknownNameListsEveryName(t *testing.T) {
	for _, tc := range []struct {
		src, from, to, want string
	}{
		{everyKeySpec, "    kind: swapout", "    kind: bogus",
			`fault.kind: unknown kind "bogus" (one of: free, fork, swapout, flood, mprotect, crash, link-degrade, partition, budget-shrink)`},
		{everyKeySpec, "    - class: budget-shrink", "    - class: bogus",
			`chaos.class: unknown class "bogus" (one of: node-crash, link-degrade, partition, budget-shrink)`},
		{everyKeySpec, "      arrival: burst", "      arrival: bogus",
			`chaos.arrival: unknown arrival "bogus" (one of: poisson, uniform, burst)`},
		{everyFleetKeySpec, "    pattern: wave", "    pattern: bogus",
			`startup.pattern: unknown pattern "bogus" (one of: instant, linear, exponential, wave)`},
		{everyKeySpec, "  kind: kv", "  kind: bogus",
			`workload.kind: unknown kind "bogus" (one of: pingpong, pairwise-stream, pressure, chaos-pingpong, kv)`},
		{everyKeySpec, "    policy: odp", "    policy: bogus",
			`case.policy: unknown policy "bogus" (one of: ` + strings.Join(policy.Names(), ", ") + ")"},
		{everyKeySpec, "  - check: kv-clean-run", "  - check: bogus",
			`assertion.check: unknown check "bogus" (one of: emergent-steals, frame-budget-holds, kv-clean-run, no-inflight-requests, odp-absorbs-reclaim, odp-absorbs-shrink, odp-fault-visible, pin-surfaces-shrink, pinned-tenant-buffers, pinned-working-set)`},
		{everyKeySpec, "  - completed: true", "  - bogus: true",
			`assertion entry has no type key (one of: completed, pin_accounting, positive, at_least, below, check, slo, tail_differential)`},
	} {
		t.Run(strings.Fields(tc.want)[0], func(t *testing.T) {
			i := strings.Index(tc.src, tc.from+"\n")
			if i < 0 {
				t.Fatalf("no line %q", tc.from)
			}
			line := strings.Count(tc.src[:i], "\n") + 1
			specErrAt(t, strings.Replace(tc.src, tc.from+"\n", tc.to+"\n", 1), line, tc.want)
		})
	}
}
