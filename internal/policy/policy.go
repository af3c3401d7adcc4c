// Package policy defines the pluggable pinning-policy interface: every
// decision about *when* memory gets pinned, *how* device accesses
// translate, and *when* pins are dropped lives behind the Policy
// interface, so a new strategy is a registered backend instead of a patch
// to the driver (internal/core) and protocol (internal/omx) layers.
//
// The paper's four evaluated strategies (pin-each-comm, permanent,
// on-demand a.k.a. the pinning cache, overlapped), its QsNet-style
// no-pinning ideal, an NP-RDMA-style ODP backend (no pinning; the NIC
// faults on non-resident pages and retries), and an eBPF-mm-style
// user-guided pin-ahead backend are all implementations of this one
// interface — see backends.go.
//
// The split of responsibilities is deliberate:
//
//   - policy (this package): pure decisions. Backends hold no simulation
//     state and import nothing from the engine, so the driver layer can
//     consult them from any context.
//   - core.Manager: the mechanism. It executes pin/unpin work on a core,
//     tracks epochs and waiters, listens to MMU notifiers, services ODP
//     faults — and asks the Policy which of those levers to pull.
//   - omx.Endpoint: path selection. Whether a rendezvous waits for the
//     pin, overlaps with it, or needs no pin at all is the backend's
//     OverlapTransfer and Access answer.
//
// Selecting a backend: omx.Config.Policy takes any Policy value, a
// built-in from backends.go or an out-of-tree strategy (nil means
// PinEachComm).
// Spec files' `policy:` key, the omxsim CLI's `-policy <name>` flag and
// the `omxsim policies` listing all speak the registry's names.
package policy

import (
	"fmt"
	"sort"
)

// AccessMode says how device-side accesses to a region's memory translate.
type AccessMode int

const (
	// AccessPinned translates through frames the driver pinned; accesses
	// beyond the pin-progress cursor are overlap misses. This is the
	// paper's model — commodity NICs can only DMA to pinned pages.
	AccessPinned AccessMode = iota
	// AccessPageTable translates through the live page table at zero
	// modeled cost: the QsNet-style NIC-MMU ideal the paper's conclusion
	// points at. Nothing is ever pinned.
	AccessPageTable
	// AccessODP translates through the live page table, but a
	// non-resident (never-touched or swapped-out) page makes the access
	// fail like an IOMMU page fault: the NIC drops the packet and raises
	// a page request the host services asynchronously, and the transfer
	// retries with backoff — NP-RDMA's on-demand-paging model.
	AccessODP
)

// String names the access mode.
func (m AccessMode) String() string {
	switch m {
	case AccessPinned:
		return "pinned"
	case AccessPageTable:
		return "page-table"
	case AccessODP:
		return "odp"
	default:
		return fmt.Sprintf("access(%d)", int(m))
	}
}

// Policy is one pinning strategy. Implementations must be stateless (or
// immutable): one Policy value is shared by every endpoint that selects
// it.
type Policy interface {
	// Name is the registry key, the omxsim `-policy` selector, and the
	// label reports use. Lower-case, hyphenated.
	Name() string
	// Description is one line for `omxsim policies` and the docs.
	Description() string
	// Access selects how device-side accesses translate (pinned frames,
	// live page table, or ODP faulting).
	Access() AccessMode
	// PinAtDeclare starts pinning as soon as a region is declared,
	// before any communication needs it: Permanent's eager pin and
	// pin-ahead's speculation. Ignored for non-AccessPinned backends.
	PinAtDeclare() bool
	// UnpinOnRelease drops a region's pins as soon as its last user
	// releases it — the classical pin-per-communication lifetime. The
	// decoupled policies return false and leave regions pinned for
	// reuse until a notifier or the pinned-page limit takes them.
	UnpinOnRelease() bool
	// OverlapTransfer decides, per request, whether pinning overlaps
	// with the transfer — false means the transfer waits for the
	// acquire completion (the full pin) before touching the region.
	// blocking is the application's hint (paper §5); adaptive is the
	// endpoint's AdaptiveOverlap configuration.
	OverlapTransfer(blocking, adaptive bool) bool
	// RequiresCache forces the user-space region cache on: pin-ahead
	// needs it because dropping the declaration at Put would discard the
	// speculative pin it exists to keep warm.
	RequiresCache() bool
}

var registry = make(map[string]Policy)

// Register adds a backend to the registry. It rejects empty and duplicate
// names.
func Register(p Policy) error {
	if p == nil || p.Name() == "" {
		return fmt.Errorf("policy: missing name")
	}
	if _, dup := registry[p.Name()]; dup {
		return fmt.Errorf("policy: duplicate backend %q", p.Name())
	}
	registry[p.Name()] = p
	return nil
}

// MustRegister is Register for init-time use.
func MustRegister(p Policy) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// ByName looks a backend up by its registry name.
func ByName(name string) (Policy, bool) {
	p, ok := registry[name]
	return p, ok
}

// Names returns every registered backend name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered backend, sorted by name.
func All() []Policy {
	out := make([]Policy, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}
