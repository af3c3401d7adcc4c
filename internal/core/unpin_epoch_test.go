package core

import (
	"testing"

	"omxsim/internal/policy"
	"omxsim/internal/vm"
)

// TestUnpinSkippedWhenReacquired: under PinEachComm a Release schedules the
// unpin as deferred kernel work. If a new communication acquires the region
// before that work executes, the stale closure must not drop the fresh
// user's pins.
func TestUnpinSkippedWhenReacquired(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.PinEachComm})
	addr := h.buf(t, 512*1024)
	r, err := m.Declare([]Segment{{addr, 512 * 1024}})
	if err != nil {
		t.Fatal(err)
	}
	done := m.Acquire(r)
	h.eng.Run()
	if done.Err() != nil || !r.Pinned() {
		t.Fatalf("initial pin failed: err=%v pinned=%v", done.Err(), r.Pinned())
	}
	m.Release(r) // schedules the deferred unpin
	done2 := m.Acquire(r)
	h.eng.Run()
	if done2.Err() != nil {
		t.Fatalf("re-acquire failed: %v", done2.Err())
	}
	if !r.Pinned() || r.PinnedPages() == 0 {
		t.Fatalf("stale scheduled unpin dropped a re-acquired region's pins (pinned=%v pages=%d)",
			r.Pinned(), r.PinnedPages())
	}
	m.Release(r)
	h.eng.Run()
	if r.Pinned() || m.PinnedPages() != 0 {
		t.Fatalf("final release left pages pinned: %d", m.PinnedPages())
	}
}

// TestStaleUnpinDoesNotCancelRepin: Release schedules an unpin, then an MMU
// notifier invalidates the region immediately (free/munmap path) and a new
// communication re-pins it. The stale unpin closure fires first in the
// kernel queue; without the epoch guard its unpinNow bumps the epoch and
// silently cancels every in-flight repin chunk, so the acquire never
// completes.
func TestStaleUnpinDoesNotCancelRepin(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.PinEachComm})
	addr := h.buf(t, 512*1024)
	r, err := m.Declare([]Segment{{addr, 512 * 1024}})
	if err != nil {
		t.Fatal(err)
	}
	done := m.Acquire(r)
	h.eng.Run()
	if done.Err() != nil {
		t.Fatal(done.Err())
	}
	m.Release(r) // deferred unpin queued at kernel priority
	m.InvalidateRange(vm.NotifierRange{Start: addr, End: addr + 512*1024, Reason: vm.InvalidateUnmap})
	if r.Pinned() {
		t.Fatal("invalidation should have unpinned synchronously")
	}
	done2 := m.Acquire(r) // repin races the stale unpin closure
	h.eng.Run()
	if !done2.Done() {
		t.Fatal("acquire never completed: stale unpin cancelled the repin chunks")
	}
	if done2.Err() != nil {
		t.Fatalf("repin failed: %v", done2.Err())
	}
	if !r.Pinned() || r.PinnedPages() != 128 {
		t.Fatalf("repinned region lost its pins: pinned=%v pages=%d", r.Pinned(), r.PinnedPages())
	}
	if m.Stats().Repins != 1 {
		t.Fatalf("repins=%d, want 1", m.Stats().Repins)
	}
	m.Release(r)
	h.eng.Run()
	if m.PinnedPages() != 0 {
		t.Fatalf("final release left %d pages pinned", m.PinnedPages())
	}
}
