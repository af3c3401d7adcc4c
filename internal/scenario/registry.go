package scenario

import (
	"fmt"
	"sort"

	"omxsim/internal/report"
)

var registry = make(map[string]*Scenario)

// Scenario sources: where a registry entry came from. `omxsim list`
// shows the source column; duplicate-name errors name both sides.
const (
	// SourceBuiltinGo is a scenario registered by Go code in this package
	// (the default when Source is left empty).
	SourceBuiltinGo = "builtin-go"
	// SourceBuiltinSpec is a scenario compiled from an embedded spec file
	// (internal/scenario/specs/*.yaml).
	SourceBuiltinSpec = "builtin-spec"
	// SourceFile is a scenario loaded from a user spec file at run time
	// (`omxsim run path/to/spec.yaml`).
	SourceFile = "file"
)

// Register adds a scenario to the package registry. It rejects empty
// names, scenarios without a Workload, and —
// hard, with both sources named — duplicate names: a user spec file may
// not shadow a builtin, and two builtins claiming one name is a
// programming error, never a silent last-write-wins.
func Register(s *Scenario) error {
	if s == nil || s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Source == "" {
		s.Source = SourceBuiltinGo
	}
	if prev, dup := registry[s.Name]; dup {
		return fmt.Errorf("scenario: duplicate name %q: already registered from %s, refusing the %s registration (rename the scenario)",
			s.Name, prev.Source, s.Source)
	}
	if s.Workload == nil {
		return fmt.Errorf("scenario %q: no Workload set", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// MustRegister is Register for init-time use; registration errors are
// programming errors.
func MustRegister(s *Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// unregister removes a scenario (tests only).
func unregister(name string) { delete(registry, name) }

// Get looks a scenario up by name.
func Get(name string) (*Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered scenario, sorted by name.
func All() []*Scenario {
	var out []*Scenario
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// RunByName resolves and runs a registered scenario.
func RunByName(name string, opts Options) (*report.Result, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (omxsim list shows the registry)", name)
	}
	return s.Run(opts)
}
