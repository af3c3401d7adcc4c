package chaos

import (
	"strings"
	"testing"

	"omxsim/internal/report"
	"omxsim/internal/sim"
)

func TestClassStrings(t *testing.T) {
	cases := []struct {
		c    Class
		want string
	}{
		{NodeCrash, "node-crash"},
		{LinkDegrade, "link-degrade"},
		{Partition, "partition"},
		{BudgetShrink, "budget-shrink"},
		{Class(42), "class(42)"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("Class(%d).String() = %q, want %q", int(tc.c), got, tc.want)
		}
	}
}

func TestArrivalStrings(t *testing.T) {
	cases := []struct {
		a    Arrival
		want string
	}{
		{Poisson, "poisson"},
		{Uniform, "uniform"},
		{Burst, "burst"},
		{Arrival(9), "arrival(9)"},
	}
	for _, tc := range cases {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("Arrival(%d).String() = %q, want %q", int(tc.a), got, tc.want)
		}
	}
}

func TestProfileSummary(t *testing.T) {
	var p *Profile
	if got := p.Summary(); got != "none" {
		t.Errorf("nil profile summary = %q, want \"none\"", got)
	}
	p = &Profile{
		Horizon: 10 * sim.Millisecond,
		Specs: []Spec{
			{Class: NodeCrash, Arrival: Poisson, MeanGap: 2 * sim.Millisecond, Duration: sim.Millisecond},
		},
	}
	sum := p.Summary()
	for _, want := range []string{"node-crash", "poisson"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q does not mention %q", sum, want)
		}
	}
}

// TestPlanRespectsNodeFilter checks Spec.Nodes restricts targets.
func TestPlanRespectsNodeFilter(t *testing.T) {
	p := &Profile{
		Horizon: 20 * sim.Millisecond,
		Specs: []Spec{{
			Class:    NodeCrash,
			MeanGap:  sim.Millisecond,
			Duration: sim.Millisecond,
			Nodes:    []int{1, 3},
		}},
	}
	evs := p.Plan(1, 4)
	if len(evs) == 0 {
		t.Fatal("plan is empty")
	}
	for _, ev := range evs {
		if ev.Node != 1 && ev.Node != 3 {
			t.Errorf("event targets node %d, outside the Nodes filter {1, 3}", ev.Node)
		}
	}
}

// TestPlanSeedSensitivity: different seeds must draw different schedules
// (the -chaos-seed knob has to do something).
func TestPlanSeedSensitivity(t *testing.T) {
	p := &Profile{
		Horizon: 20 * sim.Millisecond,
		Specs:   []Spec{{Class: NodeCrash, MeanGap: sim.Millisecond, Duration: sim.Millisecond}},
	}
	a, b := p.Plan(1, 4), p.Plan(2, 4)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical plans")
	}
}

func TestRecorderMerge(t *testing.T) {
	a := NewRecorder(sim.Millisecond)
	b := NewRecorder(sim.Millisecond)
	a.Fault(0)
	a.PinChurn(0, 4, true)
	a.Recovery(sim.Time(1500 * sim.Microsecond))
	b.Abort(sim.Time(1200 * sim.Microsecond))
	b.PinChurn(sim.Time(1200*sim.Microsecond), 4, false)

	series := Merge([]*Recorder{a, b, nil})
	if len(series) != 2 {
		t.Fatalf("merged series has %d buckets, want 2", len(series))
	}
	if series[0].Faults != 1 || series[0].PinPages != 4 {
		t.Errorf("bucket 0 = %+v, want 1 fault and +4 pin pages", series[0])
	}
	if series[1].Recoveries != 1 || series[1].Aborts != 1 || series[1].UnpinPages != 4 {
		t.Errorf("bucket 1 = %+v, want 1 recovery, 1 abort, -4 pages", series[1])
	}
	tot := (&report.ChaosSeries{Intervals: series}).Total()
	if tot.Faults != 1 || tot.Recoveries != 1 || tot.Aborts != 1 || tot.PinPages != 4 || tot.UnpinPages != 4 {
		t.Errorf("totals = %+v", tot)
	}
}
