package scenario

import "fmt"

// Assertion is one named predicate over a finished Run.
type Assertion struct {
	Name  string
	Check func(run *Run) (ok bool, detail string)
}

// EachCase builds an assertion that must hold on every case cell; the first
// failing cell is reported.
func EachCase(name string, check func(cr *CaseRun) (bool, string)) Assertion {
	return Assertion{Name: name, Check: func(run *Run) (bool, string) {
		for _, cr := range run.Cases {
			if ok, detail := check(cr); !ok {
				return false, fmt.Sprintf("%s: %s", cr.id(), detail)
			}
		}
		return true, ""
	}}
}

// EachCaseWhere builds an assertion checked on every case cell selected
// by want. It passes vacuously when no cell matches — which is what a
// cross-case claim must do under the -policy filter, where the cells it
// speaks about may not have run at all.
func EachCaseWhere(name string, want func(cr *CaseRun) bool, check func(cr *CaseRun) (bool, string)) Assertion {
	return Assertion{Name: name, Check: func(run *Run) (bool, string) {
		for _, cr := range run.Cases {
			if !want(cr) {
				continue
			}
			if ok, detail := check(cr); !ok {
				return false, fmt.Sprintf("%s: %s", cr.id(), detail)
			}
		}
		return true, ""
	}}
}

// PolicyCases selects the cells running the named policy backends (for
// EachCaseWhere).
func PolicyCases(names ...string) func(cr *CaseRun) bool {
	return func(cr *CaseRun) bool {
		for _, n := range names {
			if cr.PolicyName == n {
				return true
			}
		}
		return false
	}
}

// MetricAtLeast asserts metric >= min in every case.
func MetricAtLeast(metric string, min float64) Assertion {
	return EachCase(fmt.Sprintf("%s >= %g", metric, min), func(cr *CaseRun) (bool, string) {
		v, ok := cr.Metrics[metric]
		if !ok {
			return false, fmt.Sprintf("metric %q not recorded", metric)
		}
		if v < min {
			return false, fmt.Sprintf("%s = %g < %g", metric, v, min)
		}
		return true, ""
	})
}

// MetricPositive asserts metric > 0 in every case.
func MetricPositive(metric string) Assertion {
	a := EachCase(fmt.Sprintf("%s > 0", metric), func(cr *CaseRun) (bool, string) {
		v, ok := cr.Metrics[metric]
		if !ok {
			return false, fmt.Sprintf("metric %q not recorded", metric)
		}
		if v <= 0 {
			return false, fmt.Sprintf("%s = %g", metric, v)
		}
		return true, ""
	})
	return a
}

// MetricBelow asserts metric < max in every case.
func MetricBelow(metric string, max float64) Assertion {
	return EachCase(fmt.Sprintf("%s < %g", metric, max), func(cr *CaseRun) (bool, string) {
		v, ok := cr.Metrics[metric]
		if !ok {
			return false, fmt.Sprintf("metric %q not recorded", metric)
		}
		if v >= max {
			return false, fmt.Sprintf("%s = %g >= %g", metric, v, max)
		}
		return true, ""
	})
}

// PinAccountingBalanced asserts, in every case, that the driver's pin
// ledger balances: every page ever pinned was either unpinned again or is
// still accounted as pinned at the end of the run — the scenario-level
// form of the policy-contract leak check.
func PinAccountingBalanced() Assertion {
	return EachCase("pin accounting balances", func(cr *CaseRun) (bool, string) {
		pinned := cr.Metrics["stats.pages_pinned"]
		unpinned := cr.Metrics["stats.pages_unpinned"]
		end := cr.Metrics["stats.pinned_pages_end"]
		if pinned != unpinned+end {
			return false, fmt.Sprintf("pinned %g != unpinned %g + still-pinned %g",
				pinned, unpinned, end)
		}
		return true, ""
	})
}

// Completed asserts every case ran all ranks to completion (no budget
// expiry).
func Completed() Assertion {
	return EachCase("all ranks completed", func(cr *CaseRun) (bool, string) {
		if !cr.Completed {
			return false, "budget expired with ranks still blocked"
		}
		return true, ""
	})
}
