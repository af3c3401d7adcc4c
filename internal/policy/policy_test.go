package policy

import (
	"strings"
	"testing"
)

func TestRegistryBuiltins(t *testing.T) {
	for _, want := range []string{
		"pin-each-comm", "permanent", "on-demand", "overlapped",
		"no-pinning", "odp", "pin-ahead",
	} {
		p, ok := ByName(want)
		if !ok {
			t.Fatalf("builtin backend %q not registered", want)
		}
		if p.Name() != want {
			t.Fatalf("backend %q reports name %q", want, p.Name())
		}
		if p.Description() == "" {
			t.Fatalf("backend %q has no description", want)
		}
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names/All length mismatch")
	}
}

func TestRegisterRejects(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Fatal("nil backend accepted")
	}
	err := Register(OnDemand)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate registration not rejected: %v", err)
	}
}
