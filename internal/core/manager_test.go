package core

import (
	"bytes"
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

type harness struct {
	eng     *sim.Engine
	as      *vm.AddressSpace
	al      *vm.Allocator
	machine *cpu.Machine
	core    *cpu.Core
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	eng := sim.NewEngine(3)
	as := vm.NewAddressSpace(1, vm.NewPhysMem(0))
	al, err := vm.NewAllocator(as, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.NewMachine(eng, cpu.XeonE5460)
	return &harness{eng: eng, as: as, al: al, machine: m, core: m.Core(0)}
}

func (h *harness) manager(cfg ManagerConfig) *Manager {
	return NewManager(h.eng, h.as, h.core, cfg)
}

func (h *harness) buf(t *testing.T, size int) vm.Addr {
	t.Helper()
	a, err := h.al.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// readAt copies len(dst) bytes at region offset off through ReadBufAt,
// the path the pull engine reads regions through.
func readAt(r *Region, off int, dst []byte) error {
	var b vm.Buf
	if err := r.ReadBufAt(off, len(dst), &b); err != nil {
		return err
	}
	b.CopyTo(dst)
	b.Release()
	return nil
}

// writeAt writes src at region offset off through WriteBufAt, the path
// pull replies land through.
func writeAt(r *Region, off int, src []byte) error {
	b := vm.PageBuf(src)
	defer b.Release()
	return r.WriteBufAt(off, &b)
}

func TestDeclareDoesNotPin(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	addr := h.buf(t, 1<<20)
	r, err := m.Declare([]Segment{{addr, 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if r.Pinned() || r.PinnedPages() != 0 || m.PinnedPages() != 0 {
		t.Fatal("declare pinned pages under OnDemand")
	}
	if r.Pages() != 256 || r.Bytes() != 1<<20 {
		t.Fatalf("pages=%d bytes=%d", r.Pages(), r.Bytes())
	}
}

func TestPermanentPinsAtDeclare(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.Permanent})
	addr := h.buf(t, 256*1024)
	r, err := m.Declare([]Segment{{addr, 256 * 1024}})
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if !r.Pinned() || m.PinnedPages() != 64 {
		t.Fatalf("pinned=%v total=%d, want pinned 64 pages", r.Pinned(), m.PinnedPages())
	}
}

func TestAcquirePinsOnDemandAndStaysPinned(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	addr := h.buf(t, 512*1024)
	r, _ := m.Declare([]Segment{{addr, 512 * 1024}})
	var errs []error
	done := m.Acquire(r)
	done.OnDone(h.eng, func() { errs = append(errs, done.Err()) })
	h.eng.Run()
	if len(errs) != 1 || errs[0] != nil {
		t.Fatalf("acquire errs = %v", errs)
	}
	if !r.Pinned() {
		t.Fatal("region not pinned after acquire")
	}
	m.Release(r)
	h.eng.Run()
	if !r.Pinned() {
		t.Fatal("OnDemand region unpinned at release; must stay pinned")
	}
	// Second acquire is a pin-cache hit.
	m.Acquire(r)
	h.eng.Run()
	if m.Stats().AcquiresPinned != 1 {
		t.Fatalf("AcquiresPinned = %d, want 1", m.Stats().AcquiresPinned)
	}
}

// TestPinEachCommUnpinsAtRelease also covers the zero ManagerConfig: a
// nil Policy means pin-each-comm.
func TestPinEachCommUnpinsAtRelease(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  ManagerConfig
	}{
		{"pin-each-comm", ManagerConfig{Policy: policy.PinEachComm}},
		{"zero-config", ManagerConfig{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t)
			m := h.manager(c.cfg)
			addr := h.buf(t, 256*1024)
			r, _ := m.Declare([]Segment{{addr, 256 * 1024}})
			m.Acquire(r)
			h.eng.Run()
			if !r.Pinned() {
				t.Fatal("not pinned after acquire")
			}
			m.Release(r)
			h.eng.Run()
			if r.Pinned() || m.PinnedPages() != 0 {
				t.Fatal("left pages pinned after release")
			}
			st := m.Stats()
			if st.PinOps != 1 || st.UnpinOps != 1 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestPinCostChargedOnCore(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	addr := h.buf(t, 1<<20) // 256 pages
	r, _ := m.Declare([]Segment{{addr, 1 << 20}})
	m.Acquire(r)
	h.eng.Run()
	want := cpu.XeonE5460.PinCost(256)
	got := h.core.BusyTime(cpu.Kernel)
	// Chunked rounding may add a few ns.
	if got < want-100 || got > want+100 {
		t.Fatalf("kernel busy time = %v, want ~%v", got, want)
	}
}

func TestOverlappedPinProgressesInChunks(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.Overlapped, PinChunkPages: 32})
	addr := h.buf(t, 1<<20) // 256 pages
	r, _ := m.Declare([]Segment{{addr, 1 << 20}})
	m.Acquire(r)
	var progress []int
	// Sample the cursor as the pin advances.
	var sample func()
	sample = func() {
		progress = append(progress, r.PinnedPages())
		if !r.Pinned() {
			h.eng.After(2*sim.Microsecond, sample)
		}
	}
	h.eng.After(0, sample)
	h.eng.Run()
	if !r.Pinned() {
		t.Fatal("overlapped pin never completed")
	}
	// Cursor must be monotone and hit intermediate values (not 0 -> 256).
	sawPartial := false
	for i := 1; i < len(progress); i++ {
		if progress[i] < progress[i-1] {
			t.Fatal("pin cursor went backwards")
		}
		if progress[i] > 0 && progress[i] < 256 {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatalf("never observed partial pin progress: %v", progress)
	}
}

// TestPinChunkDefault checks the pin-work granularity: a zero
// PinChunkPages pins in Open-MX's 32-page chunks, and a configured value
// is honored.
func TestPinChunkDefault(t *testing.T) {
	for _, tc := range []struct{ configured, want int }{{0, 32}, {8, 8}} {
		h := newHarness(t)
		m := h.manager(ManagerConfig{Policy: policy.OnDemand, PinChunkPages: tc.configured})
		var chunks []int
		m.OnPinChurn = func(pages int, pinned bool) {
			if pinned {
				chunks = append(chunks, pages)
			}
		}
		addr := h.buf(t, 64*vm.PageSize)
		r, err := m.Declare([]Segment{{addr, 64 * vm.PageSize}})
		if err != nil {
			t.Fatal(err)
		}
		m.Acquire(r)
		h.eng.Run()
		if len(chunks) != 64/tc.want {
			t.Fatalf("PinChunkPages %d: pinned in chunks %v, want %d chunks of %d pages",
				tc.configured, chunks, 64/tc.want, tc.want)
		}
		for _, n := range chunks {
			if n != tc.want {
				t.Fatalf("PinChunkPages %d: pinned in chunks %v, want %d pages each", tc.configured, chunks, tc.want)
			}
		}
	}
}

func TestReadyTracksPinnedPrefix(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.Overlapped, PinChunkPages: 16})
	addr := h.buf(t, 256*1024) // 64 pages
	r, _ := m.Declare([]Segment{{addr, 256 * 1024}})
	m.Acquire(r)
	checked := false
	var check func()
	check = func() {
		pp := r.PinnedPages()
		if pp > 0 && pp < 64 {
			if !r.Ready(0, pp*vm.PageSize) {
				t.Errorf("prefix of %d pages not Ready", pp)
			}
			if r.Ready(0, (pp+1)*vm.PageSize) {
				t.Errorf("range beyond %d pinned pages reported Ready", pp)
			}
			checked = true
		}
		if !r.Pinned() {
			h.eng.After(sim.Microsecond, check)
		}
	}
	h.eng.After(0, check)
	h.eng.Run()
	if !checked {
		t.Fatal("never sampled a partial state")
	}
	if !r.Ready(0, 256*1024) {
		t.Fatal("fully pinned region not Ready")
	}
}

func TestPinFailsOnInvalidSegmentAtAcquireTime(t *testing.T) {
	// Paper §3.1: declaring an invalid region succeeds; pinning fails at
	// communication time and the request aborts.
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	r, err := m.Declare([]Segment{{0xdead0000, 64 * 1024}})
	if err != nil {
		t.Fatalf("declare of invalid region failed: %v", err)
	}
	done := m.Acquire(r)
	h.eng.Run()
	if done.Err() == nil {
		t.Fatal("acquire of invalid region succeeded")
	}
	if m.Stats().PinFailures != 1 {
		t.Fatal("pin failure not counted")
	}
	if m.PinnedPages() != 0 {
		t.Fatal("partial pin leaked")
	}
}

// TestPinOneHandlePerSegment: a region pinned in several chunks holds one
// pin handle per segment, sized once for the segment's pages. A chunk
// that fails partway through a segment leaves nothing pinned, and once
// the range is mapped again a repin pins every page exactly once.
func TestPinOneHandlePerSegment(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand, PinChunkPages: 4})
	a1, _ := h.as.Mmap(10 * vm.PageSize)
	a2, _ := h.as.Mmap(7 * vm.PageSize)
	// A hole at pages 6-7 of the first segment fails its second chunk
	// after that chunk has pinned pages 4-5.
	hole := a1 + 6*vm.PageSize
	if err := h.as.Munmap(hole, 2*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Declare([]Segment{{a1 + 100, 10*vm.PageSize - 100}, {a2, 7 * vm.PageSize}})
	done := m.Acquire(r)
	h.eng.Run()
	if done.Err() == nil {
		t.Fatal("pin across a hole succeeded")
	}
	m.Release(r)
	if m.PinnedPages() != 0 || m.Stats().PagesPinned != 4 || m.Stats().PagesUnpinned != 4 {
		t.Fatalf("failed pin left %d pages pinned (pinned %d, unpinned %d), want 0 (4, 4)",
			m.PinnedPages(), m.Stats().PagesPinned, m.Stats().PagesUnpinned)
	}
	for si, sp := range r.segPin {
		if sp.pin != nil {
			t.Fatalf("segment %d keeps a pin handle after the failed pin", si)
		}
	}
	if err := h.as.MmapFixed(hole, 2*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	done = m.Acquire(r)
	h.eng.Run()
	if done.Err() != nil || !r.Pinned() {
		t.Fatalf("repin failed: %v", done.Err())
	}
	for si, sp := range r.segPin {
		if sp.pin == nil {
			t.Fatalf("segment %d has no pin handle", si)
		}
		if n, c := sp.pin.NumPages(), cap(sp.pin.Frames()); n != sp.pages || c != sp.pages {
			t.Fatalf("segment %d: handle holds %d pages in room for %d, want %d sized once", si, n, c, sp.pages)
		}
		for i := 0; i < sp.pages; i++ {
			if n := sp.pin.Frame(i).PinCount(); n != 1 {
				t.Fatalf("segment %d page %d pinned %d times, want 1", si, i, n)
			}
		}
	}
	m.Release(r)
	if err := m.Undeclare(r); err != nil {
		t.Fatal(err)
	}
	if m.PinnedPages() != 0 || r.segPin[0].pin != nil || r.segPin[1].pin != nil {
		t.Fatal("undeclare left pins behind")
	}
}

func TestNotifierUnpinsOnFree(t *testing.T) {
	// The paper's Figure 3 scenario: malloc, communicate (pin), free
	// (invalidate -> unpin), malloc again (same buffer), communicate
	// (repin).
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	addr := h.buf(t, 1<<20)
	r, _ := m.Declare([]Segment{{addr, 1 << 20}})
	m.Acquire(r)
	h.eng.Run()
	m.Release(r)
	if err := h.al.Free(addr); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if r.Pinned() || m.PinnedPages() != 0 {
		t.Fatal("region still pinned after free/invalidate")
	}
	if m.Stats().InvalidateHits != 1 {
		t.Fatalf("InvalidateHits = %d, want 1", m.Stats().InvalidateHits)
	}
	// Realloc lands at the same address; the still-declared region repins.
	addr2 := h.buf(t, 1<<20)
	if addr2 != addr {
		t.Fatalf("allocator did not reuse address: %#x vs %#x", uint64(addr2), uint64(addr))
	}
	done := m.Acquire(r)
	h.eng.Run()
	if done.Err() != nil {
		t.Fatalf("repin after realloc failed: %v", done.Err())
	}
	if !r.Pinned() {
		t.Fatal("region not repinned")
	}
	if m.Stats().Repins != 1 {
		t.Fatalf("Repins = %d, want 1", m.Stats().Repins)
	}
}

func TestInvalidateDuringOverlappedPinAbortsWaiters(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.Overlapped, PinChunkPages: 8})
	addr := h.buf(t, 1<<20)
	r, _ := m.Declare([]Segment{{addr, 1 << 20}})
	done := m.Acquire(r)
	// Free the buffer mid-pin.
	h.eng.After(5*sim.Microsecond, func() {
		m.Release(r)
		if err := h.al.Free(addr); err != nil {
			t.Errorf("free: %v", err)
		}
	})
	h.eng.Run()
	if done.Err() == nil {
		t.Fatal("waiter succeeded despite invalidation mid-pin")
	}
	if m.PinnedPages() != 0 {
		t.Fatalf("pinned pages leaked: %d", m.PinnedPages())
	}
	if r.Pinned() {
		t.Fatal("region pinned after invalidation")
	}
}

func TestPinnedPageLimitEvictsLRU(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand, PinnedPageLimit: 100})
	a1 := h.buf(t, 256*1024) // 64 pages
	a2 := h.buf(t, 256*1024) // 64 pages
	r1, _ := m.Declare([]Segment{{a1, 256 * 1024}})
	r2, _ := m.Declare([]Segment{{a2, 256 * 1024}})
	m.Acquire(r1)
	h.eng.Run()
	m.Release(r1)
	m.Acquire(r2)
	h.eng.Run()
	if r1.Pinned() {
		t.Fatal("LRU region r1 still pinned despite limit")
	}
	if !r2.Pinned() {
		t.Fatal("r2 not pinned")
	}
	if m.PinnedPages() > 100 {
		t.Fatalf("pinned total %d exceeds limit", m.PinnedPages())
	}
	if m.Stats().LRUUnpins == 0 {
		t.Fatal("LRU unpin not counted")
	}
	// r1 remains declared and repins on next use.
	m.Release(r2)
	done := m.Acquire(r1)
	h.eng.Run()
	if done.Err() != nil || !r1.Pinned() {
		t.Fatal("r1 did not repin after LRU eviction")
	}
}

func TestActiveRegionsNeverEvicted(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand, PinnedPageLimit: 100})
	a1 := h.buf(t, 256*1024)
	a2 := h.buf(t, 256*1024)
	r1, _ := m.Declare([]Segment{{a1, 256 * 1024}})
	r2, _ := m.Declare([]Segment{{a2, 256 * 1024}})
	m.Acquire(r1) // stays in use
	h.eng.Run()
	m.Acquire(r2)
	h.eng.Run()
	if !r1.Pinned() || !r2.Pinned() {
		t.Fatal("active regions must both stay pinned (limit exceeded by necessity)")
	}
	if m.PinnedPages() != 128 {
		t.Fatalf("pinned = %d, want 128", m.PinnedPages())
	}
}

func TestRegionDataAccessThroughPins(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	addr := h.buf(t, 64*1024)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if err := h.as.Write(addr, payload); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Declare([]Segment{{addr, 64 * 1024}})
	m.Acquire(r)
	h.eng.Run()
	got := make([]byte, 64*1024)
	if err := readAt(r, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch")
	}
	// Device write lands in the app's virtual view.
	if err := writeAt(r, 1000, []byte("dma-landed")); err != nil {
		t.Fatal(err)
	}
	check := make([]byte, 10)
	h.as.Read(addr+1000, check)
	if string(check) != "dma-landed" {
		t.Fatalf("app sees %q", check)
	}
}

func TestVectorialRegion(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	a1 := h.buf(t, 8192)
	a2 := h.buf(t, 12*1024)
	// Unaligned sub-ranges of two separate buffers.
	segs := []Segment{{a1 + 100, 5000}, {a2 + 3, 10000}}
	r, err := m.Declare(segs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes() != 15000 {
		t.Fatalf("bytes = %d", r.Bytes())
	}
	m.Acquire(r)
	h.eng.Run()
	if !r.Pinned() {
		t.Fatal("vectorial region not pinned")
	}
	data := make([]byte, 15000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := writeAt(r, 0, data); err != nil {
		t.Fatal(err)
	}
	// First segment bytes land in buffer 1, rest in buffer 2.
	g1 := make([]byte, 5000)
	h.as.Read(a1+100, g1)
	g2 := make([]byte, 10000)
	h.as.Read(a2+3, g2)
	if !bytes.Equal(g1, data[:5000]) || !bytes.Equal(g2, data[5000:]) {
		t.Fatal("vectorial write did not land in the right segments")
	}
	got := make([]byte, 15000)
	if err := readAt(r, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("vectorial read-back mismatch")
	}
}

func TestUndeclareBusyRegionFails(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	addr := h.buf(t, 128*1024)
	r, _ := m.Declare([]Segment{{addr, 128 * 1024}})
	m.Acquire(r)
	h.eng.Run()
	if err := m.Undeclare(r); err != ErrRegionBusy {
		t.Fatalf("err = %v, want ErrRegionBusy", err)
	}
	m.Release(r)
	if err := m.Undeclare(r); err != nil {
		t.Fatalf("undeclare after release: %v", err)
	}
	if m.NumRegions() != 0 {
		t.Fatal("region not removed")
	}
	if err := m.Undeclare(r); err != ErrUnknownRegion {
		t.Fatalf("double undeclare err = %v", err)
	}
}

func TestDeclareValidation(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	if _, err := m.Declare(nil); err == nil {
		t.Fatal("empty declare succeeded")
	}
	segs := make([]Segment, MaxSegments+1)
	for i := range segs {
		segs[i] = Segment{vm.Addr(0x1000 * (i + 1)), 10}
	}
	if _, err := m.Declare(segs); err == nil {
		t.Fatal("oversegmented declare succeeded")
	}
	if _, err := m.Declare([]Segment{{0x1000, 0}}); err == nil {
		t.Fatal("zero-length segment accepted")
	}
}

func TestCloseUnpinsEverything(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.Permanent})
	addr := h.buf(t, 256*1024)
	m.Declare([]Segment{{addr, 256 * 1024}})
	h.eng.Run()
	if m.PinnedPages() == 0 {
		t.Fatal("setup: nothing pinned")
	}
	m.Close()
	if m.PinnedPages() != 0 {
		t.Fatal("Close left pages pinned")
	}
	// Notifier detached: a free must not touch the (gone) manager.
	if err := h.al.Free(addr); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	addr := h.buf(t, 4096)
	r, _ := m.Declare([]Segment{{addr, 4096}})
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	m.Release(r)
}

func TestForkDoesNotDisturbPinnedRegion(t *testing.T) {
	// Fork copies pinned pages eagerly, so a pinned region's frames (the
	// device's DMA targets) survive a fork untouched and no invalidation
	// fires — while writes to COW-shared unpinned pages still notify.
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	addr := h.buf(t, 256*1024)
	other := h.buf(t, 4096)
	h.as.Write(other, []byte("x"))
	r, _ := m.Declare([]Segment{{addr, 256 * 1024}})
	m.Acquire(r)
	h.eng.Run()
	if !r.Pinned() {
		t.Fatal("setup: not pinned")
	}
	if _, err := h.as.Fork(2); err != nil {
		t.Fatal(err)
	}
	if m.Stats().InvalidateHits != 0 {
		t.Fatal("fork invalidated a pinned region")
	}
	// Writing the region through the app still works (pinned pages stayed
	// writable in the parent).
	if err := h.as.Write(addr, []byte("post-fork write")); err != nil {
		t.Fatal(err)
	}
	if h.as.COWBreaks() != 0 {
		t.Fatal("write to pinned page broke COW")
	}
	// Writing the unpinned COW-shared page fires the notifier path.
	if err := h.as.Write(other, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if h.as.COWBreaks() != 1 {
		t.Fatal("unpinned COW page did not duplicate")
	}
	if !r.Pinned() {
		t.Fatal("region lost its pins")
	}
	m.Release(r)
}
