package scenario

import (
	"strings"
	"testing"

	"omxsim/internal/mpi"
)

// tinyScenario is a cheap two-node eager-path workload for runner tests.
func tinyScenario(name string, assertions ...Assertion) *Scenario {
	return &Scenario{
		Name:        name,
		Description: "test scenario",
		Workload: func(c *mpi.Comm, cr *CaseRun) {
			const n = 16 * 1024
			buf := c.Malloc(n)
			if c.Rank() == 0 {
				c.Send(buf, n, 1, 9)
				cr.Metric("mbps", 123)
			} else {
				c.Recv(buf, n, 0, 9)
			}
		},
		Assertions: assertions,
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	s := tinyScenario("t-dup")
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	defer unregister("t-dup")
	dup := tinyScenario("t-dup")
	dup.Source = SourceFile
	err := Register(dup)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate registration not rejected: %v", err)
	}
	// The error must name both sides: the survivor's source and the
	// rejected registration's.
	for _, want := range []string{SourceBuiltinGo, SourceFile} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("duplicate error does not name source %q: %v", want, err)
		}
	}
}

func TestRegisterValidates(t *testing.T) {
	if err := Register(&Scenario{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register(&Scenario{Name: "t-empty"}); err == nil {
		unregister("t-empty")
		t.Fatal("scenario without workload accepted")
	}
}

func TestBuiltinsRegisteredAndSorted(t *testing.T) {
	names := Names()
	for _, want := range []string{
		"pingpong", "figure6", "figure7", "imb", "imb-all", "npbis",
		"overlapmiss", "overload", "pinbench", "quickstart", "pincache",
		"rendezvous", "adaptive", "mixed-policy", "faults",
		"policy-swapout", "policy-fork", "policy-flood", "multitenant",
	} {
		if _, ok := Get(want); !ok {
			t.Errorf("builtin scenario %q not registered", want)
		}
	}
	if len(names) < 6 {
		t.Fatalf("only %d scenarios registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestAssertionFailurePropagates(t *testing.T) {
	s := tinyScenario("t-fail", MetricAtLeast("mbps", 1e9))
	res, err := s.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed || !res.Failed() {
		t.Fatal("failing assertion did not fail the result")
	}
	// The scenario's own assertion comes first; the runner appends the
	// implicit teardown-leak check after it.
	if len(res.Assertions) != 2 || res.Assertions[0].Passed {
		t.Fatalf("assertion record wrong: %+v", res.Assertions)
	}
	if res.Assertions[0].Detail == "" {
		t.Fatal("failing assertion carries no detail")
	}
	if last := res.Assertions[1]; last.Name != "no pinned pages after teardown" || !last.Passed {
		t.Fatalf("implicit teardown assertion wrong: %+v", last)
	}
}

func TestAssertionPassPropagates(t *testing.T) {
	s := tinyScenario("t-pass", MetricAtLeast("mbps", 1), Completed())
	res, err := s.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed || res.Failed() {
		t.Fatalf("passing assertions did not pass the result: %+v", res.Assertions)
	}
}

func TestMissingMetricFailsAssertion(t *testing.T) {
	s := tinyScenario("t-missing", MetricPositive("no_such_metric"))
	res, err := s.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("assertion on unrecorded metric passed")
	}
}

func TestPolicyFilter(t *testing.T) {
	s, ok := Get("rendezvous")
	if !ok {
		t.Fatal("rendezvous not registered")
	}
	res, err := s.Run(Options{Policy: "overlapped"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 1 || res.Cases[0].Policy != "overlapped" {
		t.Fatalf("policy filter kept wrong cases: %+v", res.Cases)
	}
	if _, err := s.Run(Options{Policy: "no-such-policy"}); err == nil {
		t.Fatal("unknown -policy accepted")
	}
}

func TestRunByNameUnknown(t *testing.T) {
	if _, err := RunByName("definitely-not-registered", Options{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
