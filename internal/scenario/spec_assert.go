// spec_assert.go — the assertion block of the spec format. Every entry
// lowers onto an assertion constructor the Go builtins use too
// (MetricAtLeast, PinAccountingBalanced, KVSLOBlock, ...), and the
// `check:` form resolves a registry of named custom checks (checks.go),
// so spec and Go scenarios report an assertion under the same name.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"omxsim/internal/yamlite"
)

// specChecks is the named custom-check registry the `check:` assertion
// form resolves. Each entry is a factored builtin assertion; the display
// name in reports is the assertion's own (e.g. "frame budget holds"),
// not the registry key.
var specChecks = map[string]func() Assertion{
	"emergent-steals":       emergentSteals,
	"frame-budget-holds":    frameBudgetHolds,
	"pinned-working-set":    pinnedWorkingSet,
	"odp-absorbs-reclaim":   odpAbsorbsReclaim,
	"odp-fault-visible":     odpFaultVisible,
	"pinned-tenant-buffers": pinnedTenantBuffers,
	"no-inflight-requests":  noInflightRequests,
	"pin-surfaces-shrink":   pinSurfacesShrink,
	"odp-absorbs-shrink":    odpAbsorbsShrink,
	"kv-clean-run":          kvCleanRun,
}

// checkNames lists the registry keys for error messages, sorted.
func checkNames() string {
	names := make([]string, 0, len(specChecks))
	for n := range specChecks {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// assertTypeKeys are the keys that select an assertion form; each entry
// must carry exactly one.
var assertTypeKeys = []string{
	"completed", "pin_accounting", "positive", "at_least", "below",
	"check", "slo", "tail_differential",
}

// decodeAssertions parses the ordered assertion block.
func (d *dec) decodeAssertions(n *yamlite.Node, sp *Spec) error {
	if err := d.wantSeq(n, "assertions"); err != nil {
		return err
	}
	for _, it := range n.Items {
		if err := d.wantMap(it, "assertion"); err != nil {
			return err
		}
		var typ string
		for _, p := range it.Pairs {
			for _, k := range assertTypeKeys {
				if p.Key == k {
					if typ != "" {
						return d.errf(p.Line, "assertion sets both %q and %q: each entry is exactly one assertion", typ, p.Key)
					}
					typ = k
				}
			}
		}
		if typ == "" {
			return d.errf(it.Line, "assertion entry has no type key (one of: %s)", strings.Join(assertTypeKeys, ", "))
		}
		a, err := d.decodeAssertion(it, typ, sp)
		if err != nil {
			return err
		}
		sp.asserts = append(sp.asserts, a...)
	}
	return nil
}

// decodeAssertion lowers one entry. It returns a slice because the slo
// form expands through KVSLOBlock.
func (d *dec) decodeAssertion(it *yamlite.Node, typ string, sp *Spec) ([]Assertion, error) {
	// get fetches the typed key's own scalar value.
	typeVal := func() (*yamlite.Node, int) {
		for _, p := range it.Pairs {
			if p.Key == typ {
				return p.Val, p.Line
			}
		}
		return nil, it.Line
	}
	// rejectExtras errors on any sibling key outside allowed.
	rejectExtras := func(allowed ...string) error {
		for _, p := range it.Pairs {
			if p.Key == typ {
				continue
			}
			ok := false
			for _, a := range allowed {
				if p.Key == a {
					ok = true
					break
				}
			}
			if !ok {
				if len(allowed) == 0 {
					return d.errf(p.Line, "assertion %q: unexpected field %q (this form takes no extra fields)", typ, p.Key)
				}
				return d.errf(p.Line, "assertion %q: unexpected field %q (fields: %s)", typ, p.Key, strings.Join(allowed, ", "))
			}
		}
		return nil
	}
	// value reads the required `value` sibling.
	value := func() (float64, error) {
		for _, p := range it.Pairs {
			if p.Key == "value" {
				return d.floatVal(p.Val, "assertion value")
			}
		}
		return 0, d.errf(it.Line, "assertion %q needs a `value` field", typ)
	}

	v, line := typeVal()
	switch typ {
	case "completed", "pin_accounting":
		if err := rejectExtras(); err != nil {
			return nil, err
		}
		b, err := d.boolVal(v, typ)
		if err != nil {
			return nil, err
		}
		if !b {
			return nil, d.errf(line, "assertion %q: only `true` makes sense (drop the entry to skip the check)", typ)
		}
		if typ == "completed" {
			return []Assertion{Completed()}, nil
		}
		return []Assertion{PinAccountingBalanced()}, nil

	case "positive":
		if err := rejectExtras(); err != nil {
			return nil, err
		}
		m, err := d.str(v, "positive")
		if err != nil {
			return nil, err
		}
		return []Assertion{MetricPositive(m)}, nil

	case "at_least", "below":
		if err := rejectExtras("value"); err != nil {
			return nil, err
		}
		m, err := d.str(v, typ)
		if err != nil {
			return nil, err
		}
		bound, err := value()
		if err != nil {
			return nil, err
		}
		if typ == "at_least" {
			return []Assertion{MetricAtLeast(m, bound)}, nil
		}
		return []Assertion{MetricBelow(m, bound)}, nil

	case "check":
		if err := rejectExtras(); err != nil {
			return nil, err
		}
		name, err := d.str(v, "check")
		if err != nil {
			return nil, err
		}
		mk, ok := specChecks[name]
		if !ok {
			return nil, d.errf(v.Line, "check: unknown check %q (checks: %s)", name, checkNames())
		}
		return []Assertion{mk()}, nil

	case "slo":
		tenant, err := d.str(v, "slo")
		if err != nil {
			return nil, err
		}
		slo := KVSLO{Tenant: tenant}
		for _, p := range it.Pairs {
			if p.Key == typ {
				continue
			}
			var err error
			switch p.Key {
			case "p50_us":
				slo.P50US, err = d.floatVal(p.Val, "slo.p50_us")
			case "p99_us":
				slo.P99US, err = d.floatVal(p.Val, "slo.p99_us")
			case "p999_us":
				slo.P999US, err = d.floatVal(p.Val, "slo.p999_us")
			case "max_reject_frac":
				slo.MaxRejectFrac, err = d.floatVal(p.Val, "slo.max_reject_frac")
			case "min_rejects":
				slo.MinRejects, err = d.floatVal(p.Val, "slo.min_rejects")
			default:
				return nil, d.errf(p.Line, "assertion \"slo\": unexpected field %q (fields: p50_us, p99_us, p999_us, max_reject_frac, min_rejects)", p.Key)
			}
			if err != nil {
				return nil, err
			}
		}
		sp.sloTenants = append(sp.sloTenants, sloRef{tenant: tenant, line: line})
		return KVSLOBlock(slo), nil

	case "tail_differential":
		if err := rejectExtras("pinned", "odp", "factor"); err != nil {
			return nil, err
		}
		metric, err := d.str(v, "tail_differential")
		if err != nil {
			return nil, err
		}
		var pinned, odp string
		var factor float64
		for _, p := range it.Pairs {
			var err error
			switch p.Key {
			case "pinned":
				pinned, err = d.str(p.Val, "tail_differential.pinned")
			case "odp":
				odp, err = d.str(p.Val, "tail_differential.odp")
			case "factor":
				factor, err = d.floatVal(p.Val, "tail_differential.factor")
			}
			if err != nil {
				return nil, err
			}
		}
		if pinned == "" || odp == "" || factor <= 0 {
			return nil, d.errf(line, "assertion \"tail_differential\" needs `pinned`, `odp`, and a positive `factor`")
		}
		return []Assertion{kvTailDifferential(metric, pinned, odp, factor)}, nil
	}
	return nil, fmt.Errorf("%s:%d: unreachable assertion type %q", d.file, line, typ)
}
