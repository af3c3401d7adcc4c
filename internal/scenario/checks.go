// checks.go — named custom assertions of the builtin families, which
// the spec format's `check:` form resolves by kebab-case key
// (spec_assert.go). The report names each by its display name.
package scenario

import "fmt"

// frameBudgetHolds asserts no node's physical-frame high-water mark ever
// exceeded its configured capacity — the reclaim machinery kept the
// budget, it didn't just trail allocation.
func frameBudgetHolds() Assertion {
	return EachCase("frame budget holds", func(cr *CaseRun) (bool, string) {
		for _, n := range cr.Cluster.Nodes {
			if used := n.Phys.PeakFrames(); used > n.Phys.Capacity() {
				return false, fmt.Sprintf("node %d peaked at %d frames (capacity %d)",
					n.ID, used, n.Phys.Capacity())
			}
		}
		return true, ""
	})
}

// pinnedWorkingSet asserts the pinned backends held their comm working
// set against reclaim: the scan hit the pinned pages (resists counted)
// but never failed a pin or invalidated a pinned region.
func pinnedWorkingSet() Assertion {
	return EachCaseWhere("pinned backends hold their working set",
		PolicyCases("on-demand", "overlapped", "pin-ahead"),
		func(cr *CaseRun) (bool, string) {
			if cr.Metrics["stats.pinned_resists"] < 1 {
				return false, fmt.Sprintf("pinned_resists = %g (reclaim never hit the pinned set)",
					cr.Metrics["stats.pinned_resists"])
			}
			if f := cr.Metrics["stats.pin_failures"]; f != 0 {
				return false, fmt.Sprintf("pin_failures = %g", f)
			}
			if rp := cr.Metrics["stats.repins"]; rp != 0 {
				return false, fmt.Sprintf("repins = %g: reclaim invalidated a pinned region", rp)
			}
			return true, ""
		})
}

// odpAbsorbsReclaim is the strong ODP contract under emergent pressure:
// reclaim turned into device faults and the backend truly never pinned.
func odpAbsorbsReclaim() Assertion {
	return EachCaseWhere("odp absorbs reclaim as device faults", PolicyCases("odp"),
		func(cr *CaseRun) (bool, string) {
			if cr.Metrics["stats.odp_faults"] < 1 {
				return false, fmt.Sprintf("odp_faults = %g", cr.Metrics["stats.odp_faults"])
			}
			if p := cr.Metrics["stats.pages_pinned"]; p != 0 {
				return false, fmt.Sprintf("pages_pinned = %g", p)
			}
			return true, ""
		})
}

// odpFaultVisible is the weak variant used by the kvserve family (whose
// serving path legitimately pins elsewhere): it only demands that the
// pressure surfaced as at least one device fault. Same display name as
// the strong form — reports distinguish the scenarios, not the checks.
func odpFaultVisible() Assertion {
	return EachCaseWhere("odp absorbs reclaim as device faults", PolicyCases("odp"),
		func(cr *CaseRun) (bool, string) {
			if cr.Metrics["stats.odp_faults"] < 1 {
				return false, fmt.Sprintf("odp_faults = %g", cr.Metrics["stats.odp_faults"])
			}
			return true, ""
		})
}

// pinnedTenantBuffers asserts cross-tenant reclaim never broke a pinned
// tenant's comm buffers (no pin failures on the on-demand cells).
func pinnedTenantBuffers() Assertion {
	return EachCaseWhere("pinned tenants keep their comm buffers",
		PolicyCases("on-demand"),
		func(cr *CaseRun) (bool, string) {
			if f := cr.Metrics["stats.pin_failures"]; f != 0 {
				return false, fmt.Sprintf("pin_failures = %g", f)
			}
			return true, ""
		})
}

// noInflightRequests asserts the chaos engine's end-of-run sweep found
// no request still waiting — every op hit by a fault ended in a typed
// abort or a completed recovery, never a hang.
func noInflightRequests() Assertion {
	return EachCase("no requests left in flight", func(cr *CaseRun) (bool, string) {
		v, ok := cr.Metrics["stats.requests_inflight_end"]
		if !ok {
			return false, "stats.requests_inflight_end not recorded"
		}
		if v != 0 {
			return false, fmt.Sprintf("%g requests still in flight at end of run", v)
		}
		return true, ""
	})
}

// pinSurfacesShrink asserts a budget shrink reached the pinned backend
// as pin failures that surfaced to the workload as typed errors.
func pinSurfacesShrink() Assertion {
	return EachCaseWhere("pin backend surfaces shrink as pin failures",
		func(cr *CaseRun) bool { return cr.Case.Label == "pin" },
		func(cr *CaseRun) (bool, string) {
			if cr.Metrics["stats.pin_failures"] < 1 {
				return false, fmt.Sprintf("pin_failures = %g (shrink never hit the pin path)",
					cr.Metrics["stats.pin_failures"])
			}
			if cr.Metrics["ops_err"] < 1 {
				return false, fmt.Sprintf("ops_err = %g (pin failures never surfaced)",
					cr.Metrics["ops_err"])
			}
			return true, ""
		})
}

// odpAbsorbsShrink asserts the same shrink windows cost ODP only device
// faults — it must never pin, so it can never fail a pin.
func odpAbsorbsShrink() Assertion {
	return EachCaseWhere("odp absorbs the shrink as device faults",
		func(cr *CaseRun) bool { return cr.Case.Label == "odp" },
		func(cr *CaseRun) (bool, string) {
			if cr.Metrics["stats.odp_faults"] < 1 {
				return false, fmt.Sprintf("odp_faults = %g", cr.Metrics["stats.odp_faults"])
			}
			if f := cr.Metrics["stats.pin_failures"]; f != 0 {
				return false, fmt.Sprintf("pin_failures = %g (ODP must never pin)", f)
			}
			return true, ""
		})
}
