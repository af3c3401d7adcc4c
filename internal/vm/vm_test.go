package vm

import (
	"bytes"
	"errors"
	"testing"
)

func newAS(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(1, NewPhysMem(0))
}

func TestMmapAndReadWrite(t *testing.T) {
	as := newAS(t)
	addr, err := as.Mmap(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello across a page boundary")
	if err := as.Write(addr+PageSize-5, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Read(addr+PageSize-5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestDemandZeroReads(t *testing.T) {
	as := newAS(t)
	addr, _ := as.Mmap(PageSize)
	got := make([]byte, 64)
	for i := range got {
		got[i] = 0xff
	}
	if err := as.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh anonymous memory not zero")
		}
	}
}

func TestUnmappedAccessFails(t *testing.T) {
	as := newAS(t)
	if err := as.Write(0x1000, []byte{1}); err == nil {
		t.Fatal("write to unmapped address succeeded")
	}
	addr, _ := as.Mmap(PageSize)
	if err := as.Write(addr+PageSize, []byte{1}); err == nil {
		t.Fatal("write past end of mapping succeeded")
	}
}

func TestMunmapFreesFrames(t *testing.T) {
	phys := NewPhysMem(0)
	as := NewAddressSpace(1, phys)
	addr, _ := as.Mmap(4 * PageSize)
	if err := as.Write(addr, make([]byte, 4*PageSize)); err != nil {
		t.Fatal(err)
	}
	if phys.FramesInUse() != 4 {
		t.Fatalf("FramesInUse = %d, want 4", phys.FramesInUse())
	}
	if err := as.Munmap(addr, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if phys.FramesInUse() != 0 {
		t.Fatalf("FramesInUse = %d after munmap, want 0", phys.FramesInUse())
	}
	if as.Mapped(addr, PageSize) {
		t.Fatal("range still mapped after munmap")
	}
}

func TestPartialMunmapSplitsVMA(t *testing.T) {
	as := newAS(t)
	addr, _ := as.Mmap(4 * PageSize)
	if err := as.Munmap(addr+PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if !as.Mapped(addr, PageSize) || !as.Mapped(addr+2*PageSize, 2*PageSize) {
		t.Fatal("surviving halves not mapped")
	}
	if as.Mapped(addr+PageSize, PageSize) {
		t.Fatal("hole still mapped")
	}
	if as.Mapped(addr, 4*PageSize) {
		t.Fatal("full range reported mapped despite hole")
	}
}

func TestMunmapUnmappedFails(t *testing.T) {
	as := newAS(t)
	if err := as.Munmap(0x5000, PageSize); err == nil {
		t.Fatal("munmap of unmapped range succeeded")
	}
}

type recordingNotifier struct {
	ranges []NotifierRange
}

func (r *recordingNotifier) InvalidateRange(nr NotifierRange) {
	r.ranges = append(r.ranges, nr)
}

func TestNotifierFiresOnMunmap(t *testing.T) {
	as := newAS(t)
	n := &recordingNotifier{}
	as.RegisterNotifier(n)
	addr, _ := as.Mmap(2 * PageSize)
	if err := as.Munmap(addr, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if len(n.ranges) != 1 {
		t.Fatalf("got %d notifications, want 1", len(n.ranges))
	}
	nr := n.ranges[0]
	if nr.Start != addr || nr.End != addr+2*PageSize || nr.Reason != InvalidateUnmap {
		t.Fatalf("notification = %+v", nr)
	}
	if as.Notifications(InvalidateUnmap) != 1 {
		t.Fatal("notification counter wrong")
	}
}

func TestNotifierFiresBeforeTeardown(t *testing.T) {
	// The contract that makes kernel pinning caches sound: at callback time
	// the old translation is still intact, so the listener can unpin.
	as := newAS(t)
	addr, _ := as.Mmap(PageSize)
	pin, err := as.Pin(addr, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var sawLiveTranslation bool
	as.RegisterNotifier(notifierFunc(func(nr NotifierRange) {
		if _, ok := as.FrameAt(addr); ok {
			sawLiveTranslation = true
		}
		if err := pin.Unpin(); err != nil {
			t.Errorf("unpin in callback: %v", err)
		}
	}))
	if err := as.Munmap(addr, PageSize); err != nil {
		t.Fatal(err)
	}
	if !sawLiveTranslation {
		t.Fatal("notifier fired after translation was torn down")
	}
	if as.Phys().FramesInUse() != 0 {
		t.Fatalf("frames leaked: %d", as.Phys().FramesInUse())
	}
}

type notifierFunc func(NotifierRange)

func (f notifierFunc) InvalidateRange(nr NotifierRange) { f(nr) }

func TestUnregisterNotifier(t *testing.T) {
	as := newAS(t)
	n := &recordingNotifier{}
	as.RegisterNotifier(n)
	as.UnregisterNotifier(n)
	addr, _ := as.Mmap(PageSize)
	as.Munmap(addr, PageSize)
	if len(n.ranges) != 0 {
		t.Fatal("unregistered notifier still called")
	}
}

func TestPinFaultsPagesIn(t *testing.T) {
	phys := NewPhysMem(0)
	as := NewAddressSpace(1, phys)
	addr, _ := as.Mmap(8 * PageSize)
	pin, err := as.Pin(addr, 8*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if pin.NumPages() != 8 {
		t.Fatalf("NumPages = %d, want 8", pin.NumPages())
	}
	if phys.FramesInUse() != 8 {
		t.Fatalf("FramesInUse = %d, want 8", phys.FramesInUse())
	}
	for i := 0; i < 8; i++ {
		if pin.Frame(i).PinCount() != 1 {
			t.Fatalf("page %d pin count = %d", i, pin.Frame(i).PinCount())
		}
	}
	if err := pin.Unpin(); err != nil {
		t.Fatal(err)
	}
	if pin.Active() {
		t.Fatal("handle still active after Unpin")
	}
	if err := pin.Unpin(); err != ErrDoubleUnpin {
		t.Fatalf("double unpin error = %v, want ErrDoubleUnpin", err)
	}
}

func TestPinUnalignedRange(t *testing.T) {
	as := newAS(t)
	addr, _ := as.Mmap(4 * PageSize)
	// 2 bytes spanning a page boundary must pin both pages.
	pin, err := as.Pin(addr+PageSize-1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pin.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", pin.NumPages())
	}
	pin.Unpin()
}

func TestPinInvalidRangeRollsBack(t *testing.T) {
	phys := NewPhysMem(0)
	as := NewAddressSpace(1, phys)
	addr, _ := as.Mmap(2 * PageSize)
	// Third page is unmapped: pin must fail and release the partial pins.
	if _, err := as.Pin(addr, 3*PageSize); err == nil {
		t.Fatal("pin of partly-unmapped range succeeded")
	}
	if phys.FramesInUse() != 2 {
		// The two mapped pages were faulted in but must not be left pinned.
		t.Fatalf("FramesInUse = %d, want 2", phys.FramesInUse())
	}
	for a := addr; a < addr+2*PageSize; a += PageSize {
		if f, ok := as.FrameAt(a); ok && f.PinCount() != 0 {
			t.Fatal("rollback left pages pinned")
		}
	}
}

func TestPinnedPageNotMigratable(t *testing.T) {
	as := newAS(t)
	addr, _ := as.Mmap(2 * PageSize)
	as.Write(addr, make([]byte, 2*PageSize)) // fault both pages in
	pin, _ := as.Pin(addr, PageSize)         // pin only page 0
	f0, _ := as.FrameAt(addr)
	moved, err := as.Migrate(addr, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d, want 1 (only the unpinned page)", moved)
	}
	if f, _ := as.FrameAt(addr); f != f0 {
		t.Fatal("pinned page was migrated")
	}
	pin.Unpin()
	moved, _ = as.Migrate(addr, PageSize)
	if moved != 1 {
		t.Fatal("page not migratable after unpin")
	}
}

func TestPinnedPageNotSwappable(t *testing.T) {
	as := newAS(t)
	addr, _ := as.Mmap(2 * PageSize)
	as.Write(addr, make([]byte, 2*PageSize))
	pin, _ := as.Pin(addr, PageSize)
	swapped, err := as.SwapOut(addr, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if swapped != 1 {
		t.Fatalf("swapped = %d, want 1", swapped)
	}
	pin.Unpin()
}

func TestSwapRoundTripPreservesData(t *testing.T) {
	phys := NewPhysMem(0)
	as := NewAddressSpace(1, phys)
	addr, _ := as.Mmap(PageSize)
	data := []byte("swap me out and back")
	as.Write(addr, data)
	if n, _ := as.SwapOut(addr, PageSize); n != 1 {
		t.Fatal("swap out failed")
	}
	if phys.FramesInUse() != 0 {
		t.Fatal("frame not freed at swap out")
	}
	got := make([]byte, len(data))
	if err := as.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("after swap-in got %q, want %q", got, data)
	}
	if as.SwapIns() != 1 {
		t.Fatal("swap-in counter wrong")
	}
}

func TestSwapFiresNotifier(t *testing.T) {
	as := newAS(t)
	n := &recordingNotifier{}
	as.RegisterNotifier(n)
	addr, _ := as.Mmap(PageSize)
	as.Write(addr, []byte{1})
	as.SwapOut(addr, PageSize)
	if len(n.ranges) != 1 || n.ranges[0].Reason != InvalidateSwap {
		t.Fatalf("notifications = %+v", n.ranges)
	}
}

func TestCOWBreakOnWrite(t *testing.T) {
	as := newAS(t)
	n := &recordingNotifier{}
	addr, _ := as.Mmap(PageSize)
	as.Write(addr, []byte("original"))
	f0, _ := as.FrameAt(addr)
	if err := as.MarkCOW(addr, PageSize); err != nil {
		t.Fatal(err)
	}
	as.RegisterNotifier(n)
	// Read does not break COW.
	got := make([]byte, 8)
	as.Read(addr, got)
	if f, _ := as.FrameAt(addr); f != f0 {
		t.Fatal("read broke COW")
	}
	// Write does, and fires the notifier first.
	as.Write(addr, []byte("modified"))
	f1, _ := as.FrameAt(addr)
	if f1 == f0 {
		t.Fatal("write did not break COW")
	}
	if len(n.ranges) != 1 || n.ranges[0].Reason != InvalidateCOW {
		t.Fatalf("notifications = %+v", n.ranges)
	}
	as.Read(addr, got)
	if string(got) != "modified" {
		t.Fatalf("after COW break read %q", got)
	}
	if as.COWBreaks() != 1 {
		t.Fatal("COW counter wrong")
	}
}

func TestPinBreaksCOWEagerly(t *testing.T) {
	// A device may DMA into pinned pages, so pinning must perform the COW
	// duplication up front.
	as := newAS(t)
	addr, _ := as.Mmap(PageSize)
	as.Write(addr, []byte("shared"))
	as.MarkCOW(addr, PageSize)
	f0, _ := as.FrameAt(addr)
	pin, err := as.Pin(addr, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Unpin()
	if pin.Frame(0) == f0 {
		t.Fatal("pin returned the COW-shared frame")
	}
	if f, _ := as.FrameAt(addr); f != pin.Frame(0) {
		t.Fatal("page table does not point at the pinned frame")
	}
}

func TestPinnedFrameSurvivesMunmap(t *testing.T) {
	// If a driver fails to unpin in the notifier callback, the frame must
	// stay alive (the pin holds a reference) even though the translation is
	// gone. Freed only at last unpin.
	phys := NewPhysMem(0)
	as := NewAddressSpace(1, phys)
	addr, _ := as.Mmap(PageSize)
	as.Write(addr, []byte("payload"))
	pin, _ := as.Pin(addr, PageSize)
	f := pin.Frame(0)
	if err := as.Munmap(addr, PageSize); err != nil {
		t.Fatal(err)
	}
	if phys.FramesInUse() != 1 {
		t.Fatalf("FramesInUse = %d, want 1 (pinned frame alive)", phys.FramesInUse())
	}
	buf := make([]byte, 7)
	f.Read(0, buf)
	if string(buf) != "payload" {
		t.Fatal("pinned frame lost its data")
	}
	pin.Unpin()
	if phys.FramesInUse() != 0 {
		t.Fatalf("FramesInUse = %d after final unpin, want 0", phys.FramesInUse())
	}
}

func TestPinnedReadWriteAt(t *testing.T) {
	as := newAS(t)
	addr, _ := as.Mmap(3 * PageSize)
	pin, _ := as.Pin(addr, 3*PageSize)
	defer pin.Unpin()
	data := make([]byte, 2*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := pin.WriteAt(100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := pin.ReadAt(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pinned read-back mismatch")
	}
	// And the application view agrees (same frames).
	via := make([]byte, len(data))
	as.Read(addr+100, via)
	if !bytes.Equal(via, data) {
		t.Fatal("virtual view disagrees with pinned view")
	}
	if err := pin.ReadAt(3*PageSize-1, make([]byte, 2)); err == nil {
		t.Fatal("out-of-range pinned access succeeded")
	}
}

func TestPinPagesIncremental(t *testing.T) {
	as := newAS(t)
	addr, _ := as.Mmap(10 * PageSize)
	var handles []*Pinned
	for i := 0; i < 10; i += 2 {
		h, err := as.PinPages(addr, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for a := addr; a < addr+10*PageSize; a += PageSize {
		f, ok := as.FrameAt(a)
		if !ok || f.PinCount() != 1 {
			t.Fatalf("page at %#x not singly pinned", uint64(a))
		}
	}
	for _, h := range handles {
		h.Unpin()
	}
	if as.Phys().FramesInUse() != 10 {
		t.Fatal("frames should remain mapped after unpin")
	}
}

// TestPinExtendRollsBackAtHole: an Extend that runs into an unmapped hole
// fails and unpins only the pages it pinned itself. The handle keeps its
// earlier pages, every frame's pinRefs match the handle, and a later Unpin
// releases everything.
func TestPinExtendRollsBackAtHole(t *testing.T) {
	as := newAS(t)
	addr, _ := as.Mmap(8 * PageSize)
	if err := as.Munmap(addr+5*PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	p := as.NewPin(addr, 8)
	if err := p.Extend(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Extend(4); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("extend across the hole: err = %v, want ErrBadAddress", err)
	}
	if p.NumPages() != 2 || cap(p.Frames()) != 8 {
		t.Fatalf("after the failed extend the handle holds %d pages (cap %d), want 2 (cap 8)",
			p.NumPages(), cap(p.Frames()))
	}
	balanced := func(pinnedPages int) {
		t.Helper()
		for i := 0; i < 5; i++ {
			want := 0
			if i < pinnedPages {
				want = 1
			}
			pt := as.lookup(addr + Addr(i)<<PageShift)
			if pt == nil || !pt.present {
				t.Fatalf("page %d not resident", i)
			}
			if pt.frame.PinCount() != want {
				t.Fatalf("page %d: pinRefs %d, want %d", i, pt.frame.PinCount(), want)
			}
		}
	}
	balanced(2)
	// The hole mapped again, the same handle extends past it.
	if err := as.MmapFixed(addr+5*PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := p.Extend(6); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(); err != nil {
		t.Fatal(err)
	}
	balanced(0)
	if err := p.Extend(1); !errors.Is(err, ErrDoubleUnpin) || p.NumPages() != 0 {
		t.Fatalf("extend after unpin: err = %v with %d pages, want ErrDoubleUnpin and none", err, p.NumPages())
	}
	if err := as.Munmap(addr, 8*PageSize); err != nil {
		t.Fatal(err)
	}
	if n := as.Phys().FramesInUse(); n != 0 {
		t.Fatalf("%d frames in use after unpin and munmap, want 0", n)
	}
}

func TestFrameLimitEnforced(t *testing.T) {
	// Overcommitting a bounded PhysMem no longer fails outright: the
	// allocation path enters direct reclaim and swaps the coldest pages
	// out, so the write succeeds while FramesInUse never exceeds the
	// capacity and the displaced pages show up in the swap accounting.
	phys := NewPhysMem(4)
	as := NewAddressSpace(1, phys)
	addr, _ := as.Mmap(8 * PageSize)
	payload := make([]byte, 8*PageSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := as.Write(addr, payload); err != nil {
		t.Fatalf("overcommitted write did not reclaim: %v", err)
	}
	if phys.FramesInUse() > 4 {
		t.Fatalf("FramesInUse = %d exceeds capacity 4", phys.FramesInUse())
	}
	if phys.OccupiedPages() != 8 {
		t.Fatalf("OccupiedPages = %d, want 8", phys.OccupiedPages())
	}
	rs := phys.ReclaimStats()
	if rs.DirectStalls == 0 || rs.PgSteal == 0 {
		t.Fatalf("expected direct-reclaim activity, got %+v", rs)
	}
	// Data survives the swap round trips.
	got := make([]byte, len(payload))
	if err := as.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d after reclaim round trip", i, got[i], payload[i])
		}
	}
}

func TestFrameLimitPinnedPagesCannotBeReclaimed(t *testing.T) {
	// When every frame is pinned, reclaim has nothing to steal and the
	// allocation fails with ErrNoMemory — pinned pages are unreclaimable,
	// the paper's core claim.
	phys := NewPhysMem(4)
	as := NewAddressSpace(1, phys)
	addr, _ := as.Mmap(8 * PageSize)
	h, err := as.PinPages(addr, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Write(addr+4*PageSize, []byte{1}); err == nil {
		t.Fatal("allocation succeeded with every frame pinned")
	}
	if rs := phys.ReclaimStats(); rs.Failures == 0 || rs.PgSteal != 0 {
		t.Fatalf("expected failed reclaim with no steals, got %+v", rs)
	}
	if phys.FramesInUse() != 4 {
		t.Fatalf("FramesInUse = %d, want 4", phys.FramesInUse())
	}
	h.Unpin()
}

func TestPageHelpers(t *testing.T) {
	if PageAlignDown(PageSize+1) != PageSize || PageAlignUp(PageSize+1) != 2*PageSize {
		t.Fatal("alignment helpers wrong")
	}
	if PageAlignUp(PageSize) != PageSize {
		t.Fatal("PageAlignUp not idempotent on aligned value")
	}
	if PageCount(0, 1) != 1 || PageCount(PageSize-1, 2) != 2 || PageCount(0, 0) != 0 {
		t.Fatal("PageCount wrong")
	}
	if PageCount(0, 3*PageSize) != 3 {
		t.Fatal("PageCount wrong for aligned range")
	}
}

func TestMigratePreservesData(t *testing.T) {
	as := newAS(t)
	addr, _ := as.Mmap(PageSize)
	as.Write(addr, []byte("migrant"))
	f0, _ := as.FrameAt(addr)
	moved, err := as.Migrate(addr, PageSize)
	if err != nil || moved != 1 {
		t.Fatalf("Migrate = %d, %v", moved, err)
	}
	f1, _ := as.FrameAt(addr)
	if f1 == f0 {
		t.Fatal("frame did not change")
	}
	got := make([]byte, 7)
	as.Read(addr, got)
	if string(got) != "migrant" {
		t.Fatalf("after migrate read %q", got)
	}
}

func TestMProtectReadOnlyFiresNotifier(t *testing.T) {
	as := newAS(t)
	n := &recordingNotifier{}
	as.RegisterNotifier(n)
	addr, _ := as.Mmap(2 * PageSize)
	as.Write(addr, []byte("data"))
	if err := as.MProtect(addr, 2*PageSize, false); err != nil {
		t.Fatal(err)
	}
	if len(n.ranges) != 1 || n.ranges[0].Reason != InvalidateProtect {
		t.Fatalf("notifications = %+v", n.ranges)
	}
	// Reads still work; a write breaks COW-style into a fresh frame.
	f0, _ := as.FrameAt(addr)
	as.Write(addr, []byte("more"))
	f1, _ := as.FrameAt(addr)
	if f0 == f1 {
		t.Fatal("write to protected page did not duplicate the frame")
	}
	// Restoring write access notifies nobody.
	if err := as.MProtect(addr, 2*PageSize, true); err != nil {
		t.Fatal(err)
	}
	if len(n.ranges) != 2 { // 1 protect + 1 COW break from the write above
		t.Fatalf("got %d notifications", len(n.ranges))
	}
}

func TestMProtectUnmappedFails(t *testing.T) {
	as := newAS(t)
	if err := as.MProtect(0x4000, PageSize, false); err == nil {
		t.Fatal("mprotect of unmapped range succeeded")
	}
}

func TestMProtectUnpinsDriverRegion(t *testing.T) {
	// End-to-end with a pin: protecting a pinned buffer read-only must
	// invalidate (the device might write), and the notifier lets the
	// listener unpin before the permission change.
	as := newAS(t)
	addr, _ := as.Mmap(PageSize)
	pin, _ := as.Pin(addr, PageSize)
	as.RegisterNotifier(notifierFunc(func(nr NotifierRange) {
		if nr.Reason == InvalidateProtect {
			pin.Unpin()
		}
	}))
	if err := as.MProtect(addr, PageSize, false); err != nil {
		t.Fatal(err)
	}
	if pin.Active() {
		t.Fatal("pin survived mprotect")
	}
}
