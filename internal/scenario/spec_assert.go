// spec_assert.go — the assertion block of the spec format. Every entry
// lowers onto an assertion constructor the Go builtins use too
// (MetricAtLeast, PinAccountingBalanced, KVSLOBlock, ...), and the
// `check:` form resolves a registry of named custom checks (checks.go),
// so spec and Go scenarios report an assertion under the same name.
package scenario

import (
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

// assertForm decodes one assertion entry whose type key is key.
type assertForm func(d *dec, it *yamlite.Node, key string) ([]Assertion, error)

// assertForms is the assertion table: each entry carries exactly one of
// these keys, which picks its form. A form returns a slice because slo
// expands through KVSLOBlock.
var assertForms = []struct {
	key    string
	decode assertForm
}{
	{"completed", flagForm(Completed)},
	{"pin_accounting", flagForm(PinAccountingBalanced)},
	{"positive", positiveForm},
	{"at_least", boundForm(MetricAtLeast)},
	{"below", boundForm(MetricBelow)},
	{"check", checkForm},
	{"slo", sloForm},
	{"tail_differential", tailForm},
}

// decodeAssertions decodes the ordered assertion block.
func (d *dec) decodeAssertions(n *yamlite.Node) error {
	return d.items(n, "assertions", func(it *yamlite.Node) error {
		if err := d.wantMap(it, name{key: "assertion"}); err != nil {
			return err
		}
		form := -1
		for _, p := range it.Pairs {
			for i, f := range assertForms {
				if p.Key != f.key {
					continue
				}
				if form >= 0 {
					return d.errf(p.Line, "assertion sets both %q and %q: each entry is exactly one assertion", assertForms[form].key, p.Key)
				}
				form = i
			}
		}
		if form < 0 {
			var keys []string
			for _, f := range assertForms {
				keys = append(keys, f.key)
			}
			return d.errf(it.Line, "assertion entry has no type key (one of: %s)", strings.Join(keys, ", "))
		}
		as, err := assertForms[form].decode(d, it, assertForms[form].key)
		d.s.Assertions = append(d.s.Assertions, as...)
		return err
	})
}

// assertion walks an entry's fields; errors name the section
// "assertion".
func (d *dec) assertion(it *yamlite.Node, fields ...field) error {
	return d.walk(it, "assertion", "assertion", fields)
}

// flagForm is `completed: true` and `pin_accounting: true`.
func flagForm(mk func() Assertion) assertForm {
	return func(d *dec, it *yamlite.Node, key string) ([]Assertion, error) {
		var on bool
		if err := d.assertion(it, field{key, &on}); err != nil {
			return nil, err
		}
		if !on {
			return nil, d.errf(keyLine(it, key), "assertion %q: only `true` makes sense (drop the entry to skip the check)", key)
		}
		return []Assertion{mk()}, nil
	}
}

// positiveForm is `positive: <metric>`.
func positiveForm(d *dec, it *yamlite.Node, key string) ([]Assertion, error) {
	var metric string
	if err := d.assertion(it, field{key, &metric}); err != nil {
		return nil, err
	}
	return []Assertion{MetricPositive(metric)}, nil
}

// boundForm is `at_least: <metric>` and `below: <metric>`, with `value`.
func boundForm(mk func(metric string, bound float64) Assertion) assertForm {
	return func(d *dec, it *yamlite.Node, key string) ([]Assertion, error) {
		var metric string
		var bound float64
		if err := d.assertion(it, field{key, &metric}, field{"value", &bound}); err != nil {
			return nil, err
		}
		if _, ok := it.Get("value"); !ok {
			return nil, d.errf(it.Line, "assertion %q needs a `value` field", key)
		}
		return []Assertion{mk(metric, bound)}, nil
	}
}

// checkForm is `check: <name>` from specChecks.
func checkForm(d *dec, it *yamlite.Node, key string) ([]Assertion, error) {
	var check string
	if err := d.assertion(it, field{key, &check}); err != nil {
		return nil, err
	}
	mk, ok := specChecks[check]
	if !ok {
		names := make([]string, 0, len(specChecks))
		for n := range specChecks {
			names = append(names, n)
		}
		sort.Strings(names)
		v, _ := it.Get(key)
		return nil, d.unknown(v, name{"assertion", key}, check, names)
	}
	return []Assertion{mk()}, nil
}

// sloForm is `slo: <tenant>` with its latency and admission bounds.
func sloForm(d *dec, it *yamlite.Node, key string) ([]Assertion, error) {
	var slo KVSLO
	if err := d.assertion(it,
		field{key, &slo.Tenant},
		field{"p50_us", &slo.P50US},
		field{"p99_us", &slo.P99US},
		field{"p999_us", &slo.P999US},
		field{"max_reject_frac", &slo.MaxRejectFrac},
		field{"min_rejects", &slo.MinRejects},
	); err != nil {
		return nil, err
	}
	d.sloRefs = append(d.sloRefs, sloRef{slo, keyLine(it, key)})
	return KVSLOBlock(slo), nil
}

// tailForm is `tail_differential: <metric>`: the odp case's tail is at
// least factor times the pinned case's.
func tailForm(d *dec, it *yamlite.Node, key string) ([]Assertion, error) {
	var metric, pinned, odp string
	var factor float64
	if err := d.assertion(it,
		field{key, &metric},
		field{"pinned", &pinned},
		field{"odp", &odp},
		field{"factor", &factor},
	); err != nil {
		return nil, err
	}
	if pinned == "" || odp == "" || factor <= 0 {
		return nil, d.errf(keyLine(it, key), "assertion %q needs `pinned`, `odp`, and a positive `factor`", key)
	}
	return []Assertion{kvTailDifferential(metric, pinned, odp, factor)}, nil
}
