// reclaim.go makes memory pressure emergent instead of injected: a
// bounded PhysMem keeps active/inactive frame LRU lists (maintained on
// fault and access), exposes kswapd-style watermarks, and reclaims
// unpinned frames to swap when allocations approach capacity — either
// proactively (a kswapd pass driven by recurring kernel work at a higher
// layer) or synchronously (direct reclaim inside the fault path when
// alloc hits capacity). Pinned frames resist: reclaim scans them, counts
// the resist, and rotates them back — which is exactly the paper's cost
// model (pinned pages are unreclaimable, so pinning fights the kernel's
// memory manager). Every reclaimed page fires the InvalidateSwap MMU
// notifier before the mapping changes, so the driver/cache/ODP machinery
// reacts just as it does for injected swap-outs.
//
// Like the rest of the package this is state and semantics only: CPU
// time for scanning and writeback is charged by the caller through the
// reclaim hook (see PhysMem.SetReclaimHook).
package vm

// Frame LRU list membership.
const (
	lruNone uint8 = iota
	lruInactive
	lruActive
)

// lruList is an intrusive doubly-linked list of frames, newest at head.
type lruList struct {
	head, tail *Frame
	count      int
}

func (l *lruList) pushFront(f *Frame) {
	f.lruPrev = nil
	f.lruNext = l.head
	if l.head != nil {
		l.head.lruPrev = f
	}
	l.head = f
	if l.tail == nil {
		l.tail = f
	}
	l.count++
}

func (l *lruList) remove(f *Frame) {
	if f.lruPrev != nil {
		f.lruPrev.lruNext = f.lruNext
	} else {
		l.head = f.lruNext
	}
	if f.lruNext != nil {
		f.lruNext.lruPrev = f.lruPrev
	} else {
		l.tail = f.lruPrev
	}
	f.lruPrev, f.lruNext = nil, nil
	l.count--
}

// ReclaimStats counts the reclaim subsystem's activity, mirroring the
// /proc/vmstat fields the eBPF-mm instrumentation reads. A `stat` tag
// names the field's per-cell scenario metric (stats.<name>, summed over
// nodes).
type ReclaimStats struct {
	PgScan        uint64 `stat:"pgscan"`                // frames examined by reclaim scans
	PgSteal       uint64 `stat:"pgsteal"`               // frames reclaimed to swap
	PinnedResists uint64 `stat:"pinned_resists"`        // scanned frames that resisted because they were pinned
	KswapdRuns    uint64 `stat:"kswapd_runs"`           // kswapd passes that found the low watermark breached
	KswapdSteals  uint64 `stat:"kswapd_steals"`         // frames stolen by kswapd passes
	DirectStalls  uint64 `stat:"direct_reclaim_stalls"` // direct-reclaim stalls on the allocation path
	DirectSteals  uint64 `stat:"direct_reclaim_steals"` // frames stolen by direct reclaim
	Failures      uint64 `stat:"reclaim_failures"`      // allocations that failed even after direct reclaim
}

// directReclaimBatch is how many frames one direct-reclaim stall tries to
// steal (Linux's SWAP_CLUSTER_MAX): enough headroom that the faulting
// path does not stall on every single allocation.
const directReclaimBatch = 32

// SetWatermarks configures the free-frame thresholds in frames: kswapd
// should run while free < low and reclaim until free >= high. Zero values
// pick defaults from the capacity (low = capacity/8, high = capacity/4,
// both at least 1); panics on an unbounded PhysMem or low > high.
func (pm *PhysMem) SetWatermarks(low, high int) {
	if pm.capacity <= 0 {
		panic("vm: watermarks on unbounded physical memory")
	}
	if low <= 0 {
		low = pm.capacity / 8
		if low < 1 {
			low = 1
		}
	}
	if high <= 0 {
		high = pm.capacity / 4
		if high < low {
			high = low
		}
	}
	if low > high {
		panic("vm: low watermark above high watermark")
	}
	pm.lowWater, pm.highWater = low, high
}

// LowWatermark reports the kswapd wake threshold in free frames.
func (pm *PhysMem) LowWatermark() int { return pm.lowWater }

// HighWatermark reports the kswapd reclaim target in free frames.
func (pm *PhysMem) HighWatermark() int { return pm.highWater }

// FreeFrames reports capacity - FramesInUse (meaningless when unbounded).
func (pm *PhysMem) FreeFrames() int { return pm.capacity - pm.inUse }

// NeedsKswapd reports whether free frames sit below the low watermark —
// the wake condition a recurring kswapd checks each tick.
func (pm *PhysMem) NeedsKswapd() bool {
	return pm.capacity > 0 && pm.lowWater > 0 && pm.FreeFrames() < pm.lowWater
}

// ReclaimStats returns a snapshot of the reclaim counters.
func (pm *PhysMem) ReclaimStats() ReclaimStats { return pm.rstats }

// SwappedPages reports PTEs currently holding swapped-out contents —
// per-reference, like swap_duplicate'd slots across mms: a fork-shared
// swap slot counts once per aliasing address space (the copy-on-reference
// data itself is stored once). The count balances to exactly zero at
// teardown, which is what the leak assertions rely on.
func (pm *PhysMem) SwappedPages() int { return pm.swappedPages }

// SwappedBytes reports the bytes of page data referenced from swap,
// counted per swap reference like SwappedPages (zero-fill pages swap out
// without materializing data and contribute nothing).
func (pm *PhysMem) SwappedBytes() int { return pm.swappedBytes }

// OccupiedPages reports memory occupancy the frame counter alone
// under-reports during pressure: live frames plus swap references. After
// a fork, COW-shared swap slots count once per address space (see
// SwappedPages), so this is an upper bound on unique resident+swapped
// data.
func (pm *PhysMem) OccupiedPages() int { return pm.inUse + pm.swappedPages }

// PeakOccupied reports the high-water mark of OccupiedPages.
func (pm *PhysMem) PeakOccupied() int { return pm.peakOccupied }

// SetReclaimHook registers fn to run after every reclaim pass with the
// scan/steal counts (direct marks allocation-path stalls, as opposed to
// kswapd passes). The node layer uses it to charge the scan and writeback
// CPU time as kernel work — state changes here are immediate, cost is the
// caller's, like everywhere else in the package.
func (pm *PhysMem) SetReclaimHook(fn func(scanned, stolen int, direct bool)) {
	pm.onReclaim = fn
}

// swapAdded accounts one PTE entering swap with contents pg (nil for a
// zero-fill page).
func (pm *PhysMem) swapAdded(pg *page) {
	pm.swappedPages++
	pm.swappedBytes += pageBytes(pg)
	if occ := pm.OccupiedPages(); occ > pm.peakOccupied {
		pm.peakOccupied = occ
	}
}

// swapRemoved accounts one PTE leaving swap (swap-in or teardown).
func (pm *PhysMem) swapRemoved(pg *page) {
	pm.swappedPages--
	pm.swappedBytes -= pageBytes(pg)
}

// pageBytes reports the bytes of data a page holds: none for a zero page.
func pageBytes(pg *page) int {
	if pg == nil {
		return 0
	}
	return PageSize
}

// lruTracked reports whether frame LRU maintenance is on: only bounded
// memory pays the (small) list cost on the fault path.
func (pm *PhysMem) lruTracked() bool { return pm.capacity > 0 }

// installFrame records the reverse mapping of p's frame (owner address
// space, virtual address a and the PTE p) and enters the frame on the
// active LRU list, as the fault path does for new anonymous pages.
func (as *AddressSpace) installFrame(p *pte, a Addr) {
	pm := as.phys
	if !pm.lruTracked() {
		return
	}
	f := p.frame
	f.owner, f.vaddr, f.ptep = as, PageAlignDown(a), p
	if f.onLRU != lruNone {
		pm.lruRemove(f)
	}
	pm.active.pushFront(f)
	f.onLRU = lruActive
}

// touchFrame records an access through PTE p at address a: frames aged
// into the inactive list are promoted back to active (the second-touch
// working-set signal), and the reverse mapping is refreshed to the last
// accessor — so a frame whose original owner unmapped it (e.g. a fork
// child now sole mapper) becomes reclaimable again at its next touch
// instead of rotating forever. A frame whose surviving mapper never
// touches it keeps a cleared/stale reverse mapping and stays resident; a
// full rmap would be needed to reclaim it.
func (as *AddressSpace) touchFrame(p *pte, a Addr) {
	f := p.frame
	f.owner, f.vaddr, f.ptep = as, PageAlignDown(a), p
	if f.onLRU == lruInactive {
		pm := as.phys
		pm.inactive.remove(f)
		pm.active.pushFront(f)
		f.onLRU = lruActive
	}
}

// lruRemove detaches the frame from whichever list holds it.
func (pm *PhysMem) lruRemove(f *Frame) {
	switch f.onLRU {
	case lruInactive:
		pm.inactive.remove(f)
	case lruActive:
		pm.active.remove(f)
	}
	f.onLRU = lruNone
}

// rotate moves a scanned-but-unreclaimable frame to the active head so
// the scan cursor makes progress past it.
func (pm *PhysMem) rotate(f *Frame) {
	pm.lruRemove(f)
	pm.active.pushFront(f)
	f.onLRU = lruActive
}

// shrink is the core reclaim loop: it scans the inactive list from the
// oldest end (refilling it from the active list as needed), reclaims
// frames with no pins, and rotates resisting frames. It stops after
// stealing target frames or scanning every frame once.
func (pm *PhysMem) shrink(target int) (scanned, stolen int) {
	if target <= 0 {
		return 0, 0
	}
	max := pm.inactive.count + pm.active.count
	for stolen < target && scanned < max {
		f := pm.inactive.tail
		if f == nil {
			// Refill: age the oldest active frames into the inactive list.
			if pm.active.tail == nil {
				break
			}
			for i := 0; i < target*2 && pm.active.tail != nil; i++ {
				g := pm.active.tail
				pm.active.remove(g)
				pm.inactive.pushFront(g)
				g.onLRU = lruInactive
			}
			continue
		}
		scanned++
		pm.rstats.PgScan++
		if f.pinRefs > 0 {
			// The paper's core claim: pinned pages are unreclaimable. The
			// scan pays for visiting them and moves on.
			pm.rstats.PinnedResists++
			pm.rotate(f)
			continue
		}
		if f.kernRefs > 0 {
			// Transient in-kernel reference (breakCOW/Migrate mid-copy):
			// unreclaimable right now, but not a user pin — no resist.
			pm.rotate(f)
			continue
		}
		if f.mapRefs != 1 || f.owner == nil || !f.owner.reclaimFrame(f) {
			// COW-shared, unmapped-in-flight, or stale reverse mapping:
			// not reclaimable through the single-owner fast path.
			pm.rotate(f)
			continue
		}
		stolen++
		pm.rstats.PgSteal++
	}
	return scanned, stolen
}

// KswapdPass is one wakeup of the background reclaimer: if free frames
// sit below the low watermark it reclaims toward the high watermark. The
// caller (recurring kernel work on the sim engine) charges the CPU time
// reported through the reclaim hook.
func (pm *PhysMem) KswapdPass() (scanned, stolen int) {
	if !pm.NeedsKswapd() {
		return 0, 0
	}
	pm.rstats.KswapdRuns++
	pm.inReclaim = true
	scanned, stolen = pm.shrink(pm.highWater - pm.FreeFrames())
	pm.inReclaim = false
	pm.rstats.KswapdSteals += uint64(stolen)
	if pm.onReclaim != nil {
		pm.onReclaim(scanned, stolen, false)
	}
	return scanned, stolen
}

// reclaimFrame swaps out the single mapping of f, verifying the reverse
// mapping is current and firing the InvalidateSwap notifier before the
// mapping changes. It reports whether the frame was reclaimed.
//
// The reverse map holds the PTE itself, so the check needs no page-table
// lookup: the PTE still maps f exactly when looking vaddr up again would
// find it mapping f. A leaf never moves while its vma lives, and a vma
// split (vma.sub) shares its leaves instead of copying them, so the
// pointer names the PTE at vaddr for as long as the mapping lives. Once
// the mapping goes, dropPTE has zeroed that PTE, and a frame it leaves
// alive (pinned, or mapped by another address space) loses this owner, so
// shrink never follows the pointer again. That holds even after Munmap
// returns the leaf to the pool and another mapping, on this node or
// another of its shard, takes it: the slot may then map some other frame,
// but never one whose reverse map still names it.
func (as *AddressSpace) reclaimFrame(f *Frame) bool {
	p := f.ptep
	if !p.present || p.frame != f {
		return false // stale reverse mapping
	}
	a := f.vaddr
	as.notify(a, a+PageSize, InvalidateSwap)
	// The notifier may have unpinned other pages but cannot have pinned
	// this one (callbacks only drop pins); re-check defensively anyway.
	if f.pinRefs != 0 || f.kernRefs != 0 || p.frame != f || !p.present {
		return false
	}
	as.swapOutPTE(p)
	return true
}

// allocFrame is the allocation entry for every fault-path caller: it
// tries the plain allocator first and falls back to synchronous direct
// reclaim when physical memory is exhausted — the stall Linux charges to
// the faulting thread. Reclaim's own allocations never recurse
// (PF_MEMALLOC semantics): a nested failure propagates ErrNoMemory.
func (as *AddressSpace) allocFrame() (*Frame, error) {
	pm := as.phys
	f, err := pm.alloc()
	if err == nil {
		return f, nil
	}
	if pm.inReclaim {
		return nil, err
	}
	pm.inReclaim = true
	pm.rstats.DirectStalls++
	scanned, stolen := pm.shrink(directReclaimBatch)
	pm.inReclaim = false
	pm.rstats.DirectSteals += uint64(stolen)
	if pm.onReclaim != nil {
		pm.onReclaim(scanned, stolen, true)
	}
	if stolen == 0 {
		pm.rstats.Failures++
		return nil, err
	}
	return pm.alloc()
}
