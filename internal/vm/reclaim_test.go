package vm

import "testing"

// fillPages writes one distinct byte per page so round trips are checkable.
func fillPages(t *testing.T, as *AddressSpace, addr Addr, pages int) {
	t.Helper()
	for i := 0; i < pages; i++ {
		if err := as.Write(addr+Addr(i)<<PageShift, []byte{byte(i + 1)}); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
}

func TestWatermarkDefaults(t *testing.T) {
	pm := NewPhysMem(64)
	pm.SetWatermarks(0, 0)
	if pm.LowWatermark() != 8 || pm.HighWatermark() != 16 {
		t.Fatalf("defaults = (%d, %d), want (8, 16)", pm.LowWatermark(), pm.HighWatermark())
	}
	if pm.NeedsKswapd() {
		t.Fatal("empty memory should not need kswapd")
	}
}

func TestKswapdPassReclaimsToHighWatermark(t *testing.T) {
	pm := NewPhysMem(32)
	pm.SetWatermarks(4, 8)
	as := NewAddressSpace(1, pm)
	addr, _ := as.Mmap(30 * PageSize)
	fillPages(t, as, addr, 30) // free = 2 < low
	if !pm.NeedsKswapd() {
		t.Fatalf("free = %d, watermark logic broken", pm.FreeFrames())
	}
	var hookScanned, hookStolen int
	var hookDirect bool
	pm.SetReclaimHook(func(scanned, stolen int, direct bool) {
		hookScanned, hookStolen, hookDirect = scanned, stolen, direct
	})
	scanned, stolen := pm.KswapdPass()
	if stolen == 0 || pm.FreeFrames() < pm.HighWatermark() {
		t.Fatalf("kswapd stole %d, free now %d (want >= %d)", stolen, pm.FreeFrames(), pm.HighWatermark())
	}
	if hookScanned != scanned || hookStolen != stolen || hookDirect {
		t.Fatalf("reclaim hook got (%d, %d, %v), want (%d, %d, false)",
			hookScanned, hookStolen, hookDirect, scanned, stolen)
	}
	rs := pm.ReclaimStats()
	if rs.KswapdRuns != 1 || rs.KswapdSteals != uint64(stolen) || rs.PgSteal != uint64(stolen) {
		t.Fatalf("stats %+v inconsistent with stolen=%d", rs, stolen)
	}
	if pm.OccupiedPages() != 30 {
		t.Fatalf("OccupiedPages = %d, want 30 (frames + swap)", pm.OccupiedPages())
	}
	// Satisfied kswapd does not run again.
	if s, st := pm.KswapdPass(); s != 0 || st != 0 {
		t.Fatalf("second pass did work (%d, %d) above the low watermark", s, st)
	}
}

func TestReclaimEvictsColdPagesFirst(t *testing.T) {
	pm := NewPhysMem(8)
	as := NewAddressSpace(1, pm)
	addr, _ := as.Mmap(8 * PageSize)
	fillPages(t, as, addr, 8)
	// First shrink ages the four oldest pages (0..3) onto the inactive
	// list and steals the two coldest: pages 0 and 1.
	if _, stolen := pm.shrink(2); stolen != 2 {
		t.Fatal("first shrink did not steal 2")
	}
	if as.PageResident(addr) || as.PageResident(addr+PageSize) {
		t.Fatal("oldest pages survived the first shrink")
	}
	// Second touch promotes page 2 off the inactive list...
	if err := as.Read(addr+2*PageSize, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	// ...so the next steal takes page 3, not page 2.
	if _, stolen := pm.shrink(1); stolen != 1 {
		t.Fatal("second shrink did not steal")
	}
	if !as.PageResident(addr + 2*PageSize) {
		t.Fatal("promoted (re-touched) page was reclaimed")
	}
	if as.PageResident(addr + 3*PageSize) {
		t.Fatal("cold page 3 survived ahead of the promoted page")
	}
}

func TestReclaimFiresSwapNotifier(t *testing.T) {
	pm := NewPhysMem(8)
	as := NewAddressSpace(1, pm)
	rec := &recordingNotifier{}
	as.RegisterNotifier(rec)
	addr, _ := as.Mmap(8 * PageSize)
	fillPages(t, as, addr, 8)
	if _, stolen := pm.shrink(2); stolen != 2 {
		t.Fatal("shrink did not steal")
	}
	swaps := 0
	for _, nr := range rec.ranges {
		if nr.Reason == InvalidateSwap {
			swaps++
			if nr.End-nr.Start != PageSize {
				t.Fatalf("reclaim notification spans %d bytes, want one page", nr.End-nr.Start)
			}
		}
	}
	if swaps != 2 {
		t.Fatalf("got %d swap notifications, want 2", swaps)
	}
	if as.Notifications(InvalidateSwap) != 2 {
		t.Fatalf("Notifications(swap) = %d, want 2", as.Notifications(InvalidateSwap))
	}
}

func TestReclaimSkipsPinnedFrames(t *testing.T) {
	pm := NewPhysMem(8)
	as := NewAddressSpace(1, pm)
	addr, _ := as.Mmap(8 * PageSize)
	fillPages(t, as, addr, 8)
	h, err := as.PinPages(addr, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, stolen := pm.shrink(4); stolen != 0 {
		t.Fatalf("stole %d pinned frames", stolen)
	}
	if rs := pm.ReclaimStats(); rs.PinnedResists == 0 {
		t.Fatalf("pinned frames scanned without a resist count: %+v", rs)
	}
	h.Unpin()
	if _, stolen := pm.shrink(4); stolen != 4 {
		t.Fatal("unpinned frames should reclaim")
	}
}

func TestReclaimSkipsSharedFrames(t *testing.T) {
	pm := NewPhysMem(32)
	as := NewAddressSpace(1, pm)
	addr, _ := as.Mmap(4 * PageSize)
	fillPages(t, as, addr, 4)
	child, err := as.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	// Every frame is now COW-shared (mapRefs == 2): the single-owner
	// reclaim path must leave them alone.
	if _, stolen := pm.shrink(4); stolen != 0 {
		t.Fatalf("stole %d COW-shared frames", stolen)
	}
	_ = child
}

func TestReclaimReownsFrameAfterParentUnmaps(t *testing.T) {
	pm := NewPhysMem(32)
	as := NewAddressSpace(1, pm)
	addr, _ := as.Mmap(4 * PageSize)
	fillPages(t, as, addr, 4)
	child, err := as.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	// Parent drops its mappings: the child is now sole mapper, but the
	// frames' reverse mappings pointed at the parent and were cleared.
	if err := as.Munmap(addr, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, stolen := pm.shrink(4); stolen != 0 {
		t.Fatalf("stole %d frames through a cleared reverse mapping", stolen)
	}
	// One child touch re-owns the frames; they reclaim normally again.
	if err := child.Read(addr, make([]byte, 4*PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, stolen := pm.shrink(4); stolen != 4 {
		t.Fatalf("stole %d child frames after re-adoption, want 4", stolen)
	}
	if pm.SwappedPages() == 0 {
		t.Fatal("reclaimed child pages missing from swap accounting")
	}
}

// TestReclaimSkipsStaleReverseMap: a parent's write after fork moves its
// page to a new frame, which it pins, and the old frame, which only the
// child now maps, keeps a reverse mapping that names the parent's PTE. The
// scan finds that PTE mapping another frame and moves on without touching
// it: no steal, no swap notifier on the parent, and both pages stay
// resident. Once the child touches the old frame it re-owns it, and the
// frame reclaims normally.
func TestReclaimSkipsStaleReverseMap(t *testing.T) {
	pm := NewPhysMem(32)
	as := NewAddressSpace(1, pm)
	addr, _ := as.Mmap(PageSize)
	fillPages(t, as, addr, 1)
	child, err := as.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	old, _ := child.FrameAt(addr)
	if _, err := as.Pin(addr, PageSize); err != nil { // COW break, then pin
		t.Fatal(err)
	}
	if mine, _ := as.FrameAt(addr); mine == old || old.owner != as {
		t.Fatal("the COW break did not leave the old frame reverse mapped to the parent")
	}
	if _, stolen := pm.shrink(2); stolen != 0 {
		t.Fatalf("stole %d frames through a stale reverse mapping", stolen)
	}
	if n := as.Notifications(InvalidateSwap); n != 0 {
		t.Fatalf("the stale reverse mapping fired %d swap notifiers on the parent", n)
	}
	if !as.PageResident(addr) || !child.PageResident(addr) {
		t.Fatal("a page left memory through a stale reverse mapping")
	}
	if err := child.Read(addr, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if _, stolen := pm.shrink(2); stolen != 1 || child.PageResident(addr) {
		t.Fatalf("stole %d frames after the child re-owned its frame, want its page", stolen)
	}
}

func TestSwapAccountingAcrossTeardown(t *testing.T) {
	pm := NewPhysMem(0)
	as := NewAddressSpace(1, pm)
	addr, _ := as.Mmap(4 * PageSize)
	fillPages(t, as, addr, 4)
	if n, err := as.SwapOut(addr, 4*PageSize); err != nil || n != 4 {
		t.Fatalf("SwapOut = (%d, %v)", n, err)
	}
	if pm.SwappedPages() != 4 || pm.SwappedBytes() != 4*PageSize {
		t.Fatalf("swap accounting = (%d pages, %d bytes), want (4, %d)",
			pm.SwappedPages(), pm.SwappedBytes(), 4*PageSize)
	}
	if pm.OccupiedPages() != 4 || pm.FramesInUse() != 0 {
		t.Fatalf("occupancy = %d frames-in-use = %d", pm.OccupiedPages(), pm.FramesInUse())
	}
	// Swap one page back in; the slot empties.
	if err := as.Read(addr, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if pm.SwappedPages() != 3 {
		t.Fatalf("SwappedPages = %d after swap-in, want 3", pm.SwappedPages())
	}
	// Unmapping drops the remaining slots.
	if err := as.Munmap(addr, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if pm.SwappedPages() != 0 || pm.SwappedBytes() != 0 {
		t.Fatalf("swap accounting leaked: (%d pages, %d bytes)", pm.SwappedPages(), pm.SwappedBytes())
	}
	if pm.PeakOccupied() < 4 {
		t.Fatalf("PeakOccupied = %d, want >= 4", pm.PeakOccupied())
	}
}

func TestDirectReclaimChargesHook(t *testing.T) {
	pm := NewPhysMem(4)
	as := NewAddressSpace(1, pm)
	addr, _ := as.Mmap(6 * PageSize)
	direct := 0
	pm.SetReclaimHook(func(scanned, stolen int, isDirect bool) {
		if isDirect {
			direct++
		}
	})
	fillPages(t, as, addr, 6)
	if direct == 0 {
		t.Fatal("direct reclaim never reported through the hook")
	}
	if rs := pm.ReclaimStats(); rs.DirectStalls == 0 || rs.DirectSteals == 0 {
		t.Fatalf("direct reclaim stats empty: %+v", rs)
	}
}
