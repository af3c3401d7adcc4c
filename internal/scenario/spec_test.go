package scenario

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
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

// specErrAt parses and compiles src and demands an error at
// test.yaml:<line>: (any line >= 1 when line is 0) mentioning every
// fragment.
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
	sp, err := ParseSpec([]byte(minimalSpec), "test.yaml")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t-spec" || len(s.Cases) != 1 || s.Cases[0].Label != "cache" {
		t.Fatalf("compiled scenario wrong: %+v", s)
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
			{name: "compute", weight: 3},
			{name: "storage", weight: 1},
			{name: "infra", nodes: 4},
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
	} {
		t.Run(tc.name, func(t *testing.T) { specErrAt(t, tc.src, tc.line, tc.fragments...) })
	}
}

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

// FuzzLoadSpec feeds arbitrary documents through the spec decoder and
// compiler: loading never panics, and every rejection starts with
// `<file>:<line>:` at a real line. The embedded specs and the example
// spec files seed the corpus.
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
