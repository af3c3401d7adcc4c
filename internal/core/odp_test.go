package core

import (
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/policy"
)

// TestODPFaultsOnColdPages: a never-touched buffer is non-resident, so
// the first Ready check fails and raises a page request; after the host
// services it, the same range is Ready — without pinning anything.
func TestODPFaultsOnColdPages(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.ODP})
	addr := h.buf(t, 256*1024)
	r, err := m.Declare([]Segment{{addr, 256 * 1024}})
	if err != nil {
		t.Fatal(err)
	}
	m.Acquire(r)
	h.eng.Run()

	if r.Ready(0, 64*1024) {
		t.Fatal("cold pages reported resident")
	}
	h.eng.Run() // service the page request
	if !r.Ready(0, 64*1024) {
		t.Fatal("pages still missing after fault service")
	}
	st := m.Stats()
	if st.ODPFaults == 0 || st.ODPFaultPages != 16 {
		t.Fatalf("odp faults=%d pages=%d, want 16 pages over >=1 round",
			st.ODPFaults, st.ODPFaultPages)
	}
	if st.PagesPinned != 0 || m.PinnedPages() != 0 {
		t.Fatal("ODP pinned pages")
	}
	if h.core.BusyTime(cpu.Kernel) == 0 {
		t.Fatal("fault service charged no kernel time")
	}
}

// TestODPFaultDedup: repeated Ready checks while a page request is in
// flight do not issue duplicate requests for the same pages.
func TestODPFaultDedup(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.ODP})
	addr := h.buf(t, 128*1024)
	r, _ := m.Declare([]Segment{{addr, 128 * 1024}})
	m.Acquire(r)
	h.eng.Run()

	for i := 0; i < 5; i++ {
		if r.Ready(0, 128*1024) {
			t.Fatal("cold pages reported resident")
		}
	}
	h.eng.Run()
	st := m.Stats()
	if st.ODPFaults != 1 {
		t.Fatalf("odp fault rounds = %d, want 1 (dedup)", st.ODPFaults)
	}
	if st.ODPFaultPages != 32 {
		t.Fatalf("odp fault pages = %d, want 32", st.ODPFaultPages)
	}
}

// TestODPSwapOutRefaults: swap pressure evicts the (unpinned) pages; the
// next device access faults them back in, which is exactly the cost ODP
// trades for never pinning.
func TestODPSwapOutRefaults(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.ODP})
	addr := h.buf(t, 64*1024)
	want := []byte("survives swap")
	if err := h.as.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Declare([]Segment{{addr, 64 * 1024}})
	m.Acquire(r)
	h.eng.Run()
	if !r.Ready(0, 64*1024) {
		h.eng.Run()
	}
	if !r.Ready(0, 64*1024) {
		t.Fatal("warm pages not ready")
	}

	if n, err := h.as.SwapOut(addr, 64*1024); err != nil || n != 16 {
		t.Fatalf("swapout = %d, %v; ODP pages must be evictable", n, err)
	}
	if r.Ready(0, 64*1024) {
		t.Fatal("swapped pages reported resident")
	}
	h.eng.Run()
	if !r.Ready(0, 64*1024) {
		t.Fatal("pages not faulted back after swap")
	}
	got := make([]byte, len(want))
	if err := readAt(r, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("data lost across swap: %q", got)
	}
}

// TestPinAheadSpeculation: under pin-ahead, declaring a region (the path
// an Advise hint takes) starts the pin with nobody waiting, so the later
// acquire finds it already pinned.
func TestPinAheadSpeculation(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.PinAhead})
	addr := h.buf(t, 512*1024)
	r, err := m.Declare([]Segment{{addr, 512 * 1024}})
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if !r.Pinned() {
		t.Fatal("declaration did not pin ahead")
	}
	st := m.Stats()
	if st.SpeculativePins != 1 {
		t.Fatalf("speculative pins = %d, want 1", st.SpeculativePins)
	}
	done := m.Acquire(r)
	h.eng.Run()
	if done.Err() != nil {
		t.Fatal(done.Err())
	}
	if m.Stats().AcquiresPinned != 1 {
		t.Fatal("acquire did not find the region pre-pinned")
	}
	m.Release(r)
	if !r.Pinned() {
		t.Fatal("pin-ahead must keep the region pinned across releases")
	}
}
