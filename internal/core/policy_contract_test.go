package core

import (
	"bytes"
	"testing"

	"omxsim/internal/policy"
)

// The policy contract: every registered backend — built-in or out-of-tree
// — must keep the driver's invariants. These tests iterate the policy
// registry, so a newly registered backend is covered without writing a
// line of test code (and a backend that breaks an invariant fails here
// before any scenario sees it).

// contractManager builds a manager driven by the backend directly,
// bypassing the enum, exactly like an out-of-tree plugin would.
func contractManager(h *harness, pol policy.Policy) *Manager {
	return NewManager(h.eng, h.as, h.core, ManagerConfig{Policy: pol})
}

// waitReady drains the engine until the range is Ready (ODP needs one
// round of fault service after the first Ready check raises the page
// request; pinned backends need the pin work to run).
func waitReady(t *testing.T, h *harness, r *Region, off, length int) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if r.Ready(off, length) {
			return
		}
		h.eng.Run()
	}
	t.Fatalf("region never became Ready([%d,%d)): pinned %d/%d pages",
		off, off+length, r.PinnedPages(), r.Pages())
}

// TestPolicyContractAccounting: through a full declare → acquire → access
// → release → undeclare lifecycle, pin and unpin page counts balance and
// no page stays pinned after teardown.
func TestPolicyContractAccounting(t *testing.T) {
	for _, pol := range policy.All() {
		t.Run(pol.Name(), func(t *testing.T) {
			h := newHarness(t)
			m := contractManager(h, pol)
			const size = 1 << 20
			addr := h.buf(t, size)

			r, err := m.Declare([]Segment{{addr, size}})
			if err != nil {
				t.Fatal(err)
			}
			h.eng.Run()

			done := m.Acquire(r)
			h.eng.Run()
			if done.Err() != nil {
				t.Fatalf("acquire: %v", done.Err())
			}

			waitReady(t, h, r, 0, size)
			want := []byte("policy-contract")
			if err := writeAt(r, 4096, want); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if err := readAt(r, 4096, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round trip: got %q", got)
			}

			m.Release(r)
			h.eng.Run()
			if err := m.Undeclare(r); err != nil {
				t.Fatal(err)
			}
			h.eng.Run()

			st := m.Stats()
			if m.PinnedPages() != 0 {
				t.Fatalf("pinned-page leak after teardown: %d", m.PinnedPages())
			}
			if st.PagesPinned != st.PagesUnpinned {
				t.Fatalf("accounting unbalanced: pinned %d, unpinned %d",
					st.PagesPinned, st.PagesUnpinned)
			}
			if pol.Access() != policy.AccessPinned && st.PagesPinned != 0 {
				t.Fatalf("page-table backend pinned %d pages", st.PagesPinned)
			}
		})
	}
}

// TestPolicyContractInvalidation: an MMU-notifier unmap under a declared,
// in-use region must leave no pins behind, and the protocol must be told
// (OnInvalidateInUse) so it aborts instead of DMA-ing a dead mapping.
func TestPolicyContractInvalidation(t *testing.T) {
	for _, pol := range policy.All() {
		t.Run(pol.Name(), func(t *testing.T) {
			h := newHarness(t)
			m := contractManager(h, pol)
			aborted := 0
			m.OnInvalidateInUse = func(*Region) { aborted++ }
			const size = 512 * 1024
			addr := h.buf(t, size)

			r, err := m.Declare([]Segment{{addr, size}})
			if err != nil {
				t.Fatal(err)
			}
			m.Acquire(r)
			h.eng.Run()
			waitReady(t, h, r, 0, size)
			pinnedBefore := m.PinnedPages()

			if err := h.al.Free(addr); err != nil {
				t.Fatal(err)
			}
			h.eng.Run()

			if m.PinnedPages() != 0 {
				t.Fatalf("stale pins after unmap notifier: %d", m.PinnedPages())
			}
			if pol.Access() == policy.AccessPinned {
				if pinnedBefore == 0 {
					t.Fatal("pinned backend held no pins before the unmap")
				}
				if m.Stats().InvalidateHits == 0 {
					t.Fatal("unmap notifier not counted")
				}
			}
			if aborted == 0 {
				t.Fatal("in-use region invalidated without aborting its users")
			}

			m.Release(r)
			h.eng.Run()
			if err := m.Undeclare(r); err != nil {
				t.Fatal(err)
			}
			h.eng.Run()
			st := m.Stats()
			if st.PagesPinned != st.PagesUnpinned {
				t.Fatalf("accounting unbalanced after invalidation: pinned %d, unpinned %d",
					st.PagesPinned, st.PagesUnpinned)
			}
		})
	}
}

// TestPolicyContractClose: Close with regions still declared (and even
// acquired) drops every pin — the endpoint-teardown path.
func TestPolicyContractClose(t *testing.T) {
	for _, pol := range policy.All() {
		t.Run(pol.Name(), func(t *testing.T) {
			h := newHarness(t)
			m := contractManager(h, pol)
			for i := 0; i < 2; i++ {
				addr := h.buf(t, 256*1024)
				r, err := m.Declare([]Segment{{addr, 256 * 1024}})
				if err != nil {
					t.Fatal(err)
				}
				m.Acquire(r)
			}
			h.eng.Run()
			m.Close()
			h.eng.Run()
			st := m.Stats()
			if m.PinnedPages() != 0 {
				t.Fatalf("pinned-page leak after Close: %d", m.PinnedPages())
			}
			if st.PagesPinned != st.PagesUnpinned {
				t.Fatalf("accounting unbalanced after Close: pinned %d, unpinned %d",
					st.PagesPinned, st.PagesUnpinned)
			}
		})
	}
}

// TestPolicyContractBehaviours pins down the decision matrix the built-in
// backends promise, so a refactor of the manager cannot silently flip
// one.
func TestPolicyContractBehaviours(t *testing.T) {
	cases := []struct {
		pol          policy.Policy
		access       policy.AccessMode
		pinAtDeclare bool
		wait         bool
		unpinRelease bool
	}{
		{policy.PinEachComm, policy.AccessPinned, false, true, true},
		{policy.Permanent, policy.AccessPinned, true, true, false},
		{policy.OnDemand, policy.AccessPinned, false, true, false},
		{policy.Overlapped, policy.AccessPinned, false, false, false},
		{policy.NoPinning, policy.AccessPageTable, false, true, false},
		{policy.ODP, policy.AccessODP, false, true, false},
		{policy.PinAhead, policy.AccessPinned, true, true, false},
	}
	for _, c := range cases {
		p, name := c.pol, c.pol.Name()
		if p.Access() != c.access {
			t.Errorf("%s: access %v, want %v", name, p.Access(), c.access)
		}
		if p.PinAtDeclare() != c.pinAtDeclare {
			t.Errorf("%s: PinAtDeclare %v", name, p.PinAtDeclare())
		}
		if wait := !p.OverlapTransfer(true, false); wait != c.wait {
			t.Errorf("%s: waits before use %v", name, wait)
		}
		if p.UnpinOnRelease() != c.unpinRelease {
			t.Errorf("%s: UnpinOnRelease %v", name, p.UnpinOnRelease())
		}
	}
	if !policy.PinAhead.RequiresCache() {
		t.Error("pin-ahead must require the region cache")
	}
	if policy.Overlapped.OverlapTransfer(false, true) {
		t.Error("adaptive overlap must pin non-blocking requests synchronously")
	}
	if !policy.Overlapped.OverlapTransfer(false, false) {
		t.Error("plain overlapped must overlap every request")
	}
}
