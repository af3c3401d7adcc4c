// Package vm simulates the virtual-memory subsystem the paper's mechanism
// lives in: per-process address spaces with demand-paged 4 KiB pages,
// physical frames carrying real data, page pinning with per-page pin counts
// (the get_user_pages/put_page analogue), copy-on-write, page migration,
// swap, and — centrally — MMU notifiers: callbacks invoked *before* any
// mapping change, which is what lets the Open-MX driver keep a reliable
// kernel-side pinning cache (paper §2.1, §3.1).
//
// The package models state and semantics only; CPU time for pinning and
// copying is charged by callers (the driver) on cpu.Core work queues.
//
// Each VMA in a sorted list owns a two-level page table: a directory, sized
// when the mapping is made, of 512-entry leaves (page-table pages) that the
// first fault, pin or populate in their range allocates, so memory a
// process maps but never touches costs a directory slot, not PTEs. Every
// range operation (pin, fault, read, write, migrate, swap) resolves the
// mapping once with a binary search and then walks a leaf at a time by
// direct indexing — no per-page lookups. Frame contents are reference-counted
// page buffers (see page and Buf): readers take O(1) references, the 4 KiB
// copy is paid only if a side writes while another still holds the page,
// a partial page received from another page is spliced from it rather than
// copied, and a page whose last holder lets go is recycled through its
// engine shard's pool instead of being garbage. Released frames are
// recycled per node, behind a generation stamp that makes every reference
// taken before the release stale (see FrameRef).
package vm

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// PageSize is the size of a virtual page and physical frame.
const (
	PageSize  = 4096
	PageShift = 12
)

// Addr is a virtual address within an AddressSpace.
type Addr uint64

// PageAlignDown rounds a down to a page boundary.
func PageAlignDown(a Addr) Addr { return a &^ (PageSize - 1) }

// PageAlignUp rounds a up to a page boundary.
func PageAlignUp(a Addr) Addr { return (a + PageSize - 1) &^ (PageSize - 1) }

// PageCount reports the number of pages spanned by [addr, addr+length).
func PageCount(addr Addr, length int) int {
	if length <= 0 {
		return 0
	}
	first := PageAlignDown(addr)
	last := PageAlignUp(addr + Addr(length))
	return int((last - first) >> PageShift)
}

// Errors returned by address-space operations.
var (
	ErrBadAddress  = errors.New("vm: address range not mapped")
	ErrNoMemory    = errors.New("vm: out of physical frames")
	ErrBadUnmap    = errors.New("vm: unmap range does not match a mapping")
	ErrDoubleUnpin = errors.New("vm: unpin without matching pin")
)

// Frame is a physical page frame. Its page buffer is taken lazily on first
// write; unwritten frames read as zeros. The buffer may be shared with Buf
// views, swap slots, other frames and spliced pages (see page); a write
// while another holder exists first clones the 4 KiB buffer, so every
// outstanding reference keeps the snapshot it was taken from.
type Frame struct {
	pfn     uint64
	pg      *page    // contents; nil reads as zeros
	pm      *PhysMem // allocator the frame and its pages come from
	mapRefs int32    // number of PTEs referencing this frame
	pinRefs int32    // get_user_pages-style references
	// kernRefs are transient in-kernel references (get_page-style) held
	// across an allocation inside breakCOW/Migrate so direct reclaim
	// cannot steal the frame mid-operation. Unlike pinRefs they are not
	// user pins: the reclaim scan skips them without counting a
	// pinned-resist, keeping the paper-facing metric honest.
	kernRefs int32

	// Reverse mapping and LRU linkage, maintained only on bounded PhysMem
	// (see reclaim.go): owner/vaddr record the (single) mapping reclaim
	// would tear down and ptep the PTE that holds it, lruPrev/lruNext
	// thread the active/inactive lists.
	owner            *AddressSpace
	vaddr            Addr
	ptep             *pte
	lruPrev, lruNext *Frame
	onLRU            uint8
	// freed marks a frame released and not yet reused; gen counts its
	// releases, so a FrameRef stamped before a release no longer matches.
	freed bool
	gen   uint32
}

// PinCount returns the frame's current pin reference count.
func (f *Frame) PinCount() int { return int(f.pinRefs) }

// FrameRef is a generation-stamped reference to a frame, the form a holder
// keeps when it holds a frame past the fault that returned it (pin handles
// and core's pin table). A released frame goes onto its node's free
// list and comes back as a different page's frame, so PhysMem.release bumps
// the frame's generation: a reference taken before the release never
// resolves again, the way a capability is retyped when the memory it names
// is reused.
type FrameRef struct {
	f   *Frame
	gen uint32
}

// ref stamps a reference to f with its current generation.
func (f *Frame) ref() FrameRef { return FrameRef{f: f, gen: f.gen} }

// live reports whether the frame has not been released since r was taken.
func (r FrameRef) live() bool { return r.f.gen == r.gen }

// Frame resolves the reference. It panics if the frame was released since
// the reference was taken, whether or not it has been reused since.
func (r FrameRef) Frame() *Frame {
	if !r.live() {
		r.stale()
	}
	return r.f
}

// stale panics for Frame, out of line so that Frame inlines on the access
// paths that resolve a reference per page.
//
//go:noinline
func (r FrameRef) stale() {
	panic(fmt.Sprintf("vm: stale reference to frame %d (generation %d, now %d)", r.f.pfn, r.gen, r.f.gen))
}

// Read copies min(len(dst), PageSize-off) bytes from the frame at off.
func (f *Frame) Read(off int, dst []byte) int {
	if f.freed {
		panic(fmt.Sprintf("vm: read of freed frame %d", f.pfn))
	}
	n := len(dst)
	if off+n > PageSize {
		n = PageSize - off
	}
	if n <= 0 {
		return 0
	}
	if f.pg == nil {
		clear(dst[:n])
		return n
	}
	f.pg.read(off, dst[:n])
	return n
}

// refPage takes a reference to the frame's page for another holder (nil
// means the page reads as zeros and there is nothing to share). While that
// reference lives, a write to the frame clones first, preserving the
// holder's snapshot. A spliced page is materialized first, so no other
// holder ever sees one.
func (f *Frame) refPage() *page {
	if f.freed {
		panic(fmt.Sprintf("vm: reference of freed frame %d", f.pfn))
	}
	if f.pg == nil {
		return nil
	}
	if f.pg.sp != nil {
		f.clonePage()
	}
	return f.pg.get()
}

// ensureOwned makes the frame's page a private, writable page buffer,
// cloning it while another holder exists (the copy-on-write half of
// copy-on-reference) and materializing a spliced page.
func (f *Frame) ensureOwned() {
	if f.pg != nil && (f.pg.sp != nil || f.pg.shared()) {
		f.clonePage()
	}
}

// clonePage replaces the frame's page with a private page buffer holding
// the same bytes.
func (f *Frame) clonePage() {
	pg, _ := f.pm.newPage()
	f.pg.read(0, pg.data[:])
	f.pm.putPage(f.pg)
	f.pg = pg
}

// Write copies min(len(src), PageSize-off) bytes into the frame at off.
func (f *Frame) Write(off int, src []byte) int {
	if f.freed {
		panic(fmt.Sprintf("vm: write to freed frame %d", f.pfn))
	}
	n := len(src)
	if off+n > PageSize {
		n = PageSize - off
	}
	if n <= 0 {
		return 0
	}
	f.ensureOwned()
	if f.pg == nil {
		if allZero(src[:n]) {
			// Zero pages stay materialization-free: a nil page already
			// reads as zeros.
			return n
		}
		pg, recycled := f.pm.newPage()
		if recycled {
			// Demand-zero: whatever this write leaves untouched must read
			// as zeros, not as the recycled page's old contents.
			clear(pg.data[:off])
			clear(pg.data[off+n:])
		}
		f.pg = pg
	}
	copy(f.pg.data[off:off+n], src[:n])
	return n
}

// adopt installs a shared page as the frame's contents without copying,
// taking a reference to it and dropping the frame's old page. A nil page
// means all zeros.
func (f *Frame) adopt(pg *page) {
	if f.freed {
		panic(fmt.Sprintf("vm: adopt into freed frame %d", f.pfn))
	}
	if pg == f.pg {
		return // already holds it (a reused buffer receiving the same page)
	}
	if pg != nil {
		pg.get()
	}
	f.pm.putPage(f.pg)
	f.pg = pg
}

// allZero reports whether b contains only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// PhysMem is the machine's physical memory: a frame allocator with a
// capacity limit and usage accounting.
type PhysMem struct {
	capacity int // frames; 0 = unlimited
	nextPFN  uint64
	inUse    int
	peak     int

	// Reclaim state (see reclaim.go). Watermarks are in free frames;
	// active/inactive are the frame LRU lists; inReclaim is the
	// PF_MEMALLOC-style recursion guard.
	lowWater, highWater int
	active, inactive    lruList
	inReclaim           bool
	onReclaim           func(scanned, stolen int, direct bool)
	rstats              ReclaimStats

	// Swap accounting: pages whose frames were released but whose bytes
	// stay alive in swap slots (FramesInUse alone under-reports occupancy
	// under pressure).
	swappedPages int
	swappedBytes int
	peakOccupied int

	// The pool page buffers, spliced page headers and page-table leaves
	// come from and return to (see Pool): the node's own, or one its
	// engine shard shares.
	pool      *Pool
	recycled  uint64 // page buffers this node returned to the pool
	pagesMade uint64 // page buffers this node allocated

	// Released frames, reused (most recent first) before new ones are
	// made. The list never outgrows the node's peak of live frames, so it
	// needs no cap.
	spareFrames []*Frame
}

// NewPhysMem returns physical memory with capacity frames (0 = unlimited)
// and a pool of its own.
func NewPhysMem(capacity int) *PhysMem {
	return &PhysMem{capacity: capacity, pool: NewPool()}
}

// FramesInUse reports the number of live frames.
func (pm *PhysMem) FramesInUse() int { return pm.inUse }

// PeakFrames reports the high-water mark of live frames.
func (pm *PhysMem) PeakFrames() int { return pm.peak }

// Capacity reports the configured frame limit (0 = unlimited).
func (pm *PhysMem) Capacity() int { return pm.capacity }

// SetCapacity bounds a previously unbounded allocator (the node layer
// configures its memory budget right after construction). It must be
// called before any frame is allocated: frames faulted while unbounded
// carry no reverse mapping and would be invisible to reclaim.
func (pm *PhysMem) SetCapacity(frames int) {
	if pm.inUse > 0 || pm.nextPFN > 0 {
		panic("vm: SetCapacity after frames were allocated")
	}
	pm.capacity = frames
}

// Resize changes a bounded allocator's frame budget at runtime — a
// hotplug/ballooning event. Unlike SetCapacity it is legal with live
// frames: shrinking below the current population leaves FreeFrames
// negative, which reads as a breached low watermark (kswapd reclaims
// toward the new budget) while new allocations take the direct-reclaim
// path or fail. Callers should re-derive watermarks afterwards; panics on
// an unbounded allocator or a non-positive budget.
func (pm *PhysMem) Resize(frames int) {
	if frames <= 0 {
		panic("vm: Resize to non-positive capacity")
	}
	if pm.capacity <= 0 {
		panic("vm: Resize on unbounded physical memory")
	}
	pm.capacity = frames
}

// alloc returns a zeroed frame, a released one from the free list when
// there is one. A reused frame keeps its frame number and generation.
func (pm *PhysMem) alloc() (*Frame, error) {
	if pm.capacity > 0 && pm.inUse >= pm.capacity {
		return nil, ErrNoMemory
	}
	pm.inUse++
	if pm.inUse > pm.peak {
		pm.peak = pm.inUse
	}
	if occ := pm.OccupiedPages(); occ > pm.peakOccupied {
		pm.peakOccupied = occ
	}
	if n := len(pm.spareFrames); n > 0 {
		f := pm.spareFrames[n-1]
		pm.spareFrames[n-1] = nil
		pm.spareFrames = pm.spareFrames[:n-1]
		*f = Frame{pfn: f.pfn, gen: f.gen, pm: pm}
		return f, nil
	}
	pm.nextPFN++
	return &Frame{pfn: pm.nextPFN, pm: pm}, nil
}

// release frees a frame nothing maps or pins: its page reference goes, its
// generation moves on (so every FrameRef to it goes stale), and it waits
// on the free list for alloc.
func (pm *PhysMem) release(f *Frame) {
	if f.freed {
		panic(fmt.Sprintf("vm: double free of frame %d", f.pfn))
	}
	if f.mapRefs != 0 || f.pinRefs != 0 {
		panic(fmt.Sprintf("vm: freeing frame %d with refs map=%d pin=%d", f.pfn, f.mapRefs, f.pinRefs))
	}
	pm.lruRemove(f)
	f.owner, f.ptep = nil, nil
	f.freed = true
	f.gen++
	pm.putPage(f.pg)
	f.pg = nil
	pm.inUse--
	pm.spareFrames = append(pm.spareFrames, f)
}

// pte is a page-table entry.
type pte struct {
	frame  *Frame
	swapPg *page // contents saved at swap-out (one page reference)
	// swapWritable preserves writability across a swap round trip: a
	// COW-shared read-only page must come back read-only so the next
	// write still runs breakCOW (and fires its notifier) instead of
	// silently scribbling on a shared frame.
	swapWritable bool
	present      bool
	writable     bool // false while COW-shared
	swapped      bool
}

// A leaf is one page-table page: the PTEs of leafPages consecutive pages,
// 2 MiB of address space as on x86-64 (12 KiB here, at 24 bytes a PTE).
const (
	leafShift = 9
	leafPages = 1 << leafShift
	leafMask  = leafPages - 1
)

type leaf [leafPages]pte

// vma is a mapped virtual region (anonymous memory only) together with its
// page table: page i, at start + i*PageSize, lives in leaf (base+i)>>leafShift
// of dir, slot (base+i)&leafMask. A nil leaf holds no present or swapped
// page; reads treat it as "not present" and allocate nothing. Splitting a
// vma gives each half its own directory over the leaves it still covers:
// leaves wholly inside the unmapped range drop out, a leaf the split falls
// inside stays shared, and outstanding PTE pointers stay valid.
type vma struct {
	start, end Addr // page aligned, [start, end)
	base       int  // slot of page 0 in dir[0]
	dir        []*leaf
	// split marks a part of a split vma, whose first and last leaves
	// another part may share.
	split bool
}

func newVMA(start, end Addr) *vma {
	v := &vma{start: start, end: end}
	v.dir = make([]*leaf, (v.pages()+leafMask)>>leafShift)
	return v
}

func (v *vma) pages() int { return int((v.end - v.start) >> PageShift) }

// pageOf returns the index, counted from v's first page, of the page at
// page-aligned address a, which must not lie below v.start.
func (v *vma) pageOf(a Addr) int { return int((a - v.start) >> PageShift) }

// leafRun returns the PTEs of pages [i, i+n) of v, a run that ends at the
// end of page i's leaf or at page limit, whichever comes first. An absent
// leaf is taken from alloc's pool when alloc is set; otherwise ptes is nil
// (no page of the run is present) and n is still the run's length.
func (v *vma) leafRun(i, limit int, alloc *PhysMem) (ptes []pte, n int) {
	g := v.base + i
	s := g & leafMask
	n = min(leafPages-s, limit-i)
	l := v.dir[g>>leafShift]
	if l == nil {
		if alloc == nil {
			return nil, n
		}
		l = alloc.newLeaf()
		v.dir[g>>leafShift] = l
	}
	return l[s : s+n], n
}

// sub returns the part of v covering pages [first, first+count), with a
// directory of its own over the leaves that part spans.
func (v *vma) sub(first, count int) *vma {
	g := v.base + first
	lo, hi := g>>leafShift, (g+count+leafMask)>>leafShift
	return &vma{
		start: v.start + Addr(first)<<PageShift,
		end:   v.start + Addr(first+count)<<PageShift,
		base:  g & leafMask,
		dir:   slices.Clone(v.dir[lo:hi]),
		split: true,
	}
}

// dropLeaves returns to pm's pool the leaves of v that hold only pages
// [first, first+count), an unmapped part of v whose PTEs dropPTE has
// zeroed. A leaf that holds a page outside that range stays with the part
// of v that keeps it, and the edge leaves of a split vma may be another
// part's, so those stay too.
func (v *vma) dropLeaves(pm *PhysMem, first, count int) {
	g := v.base + first
	lo, hi := g>>leafShift, (g+count+leafMask)>>leafShift
	if first > 0 && g&leafMask != 0 {
		lo++ // also holds pages of v below the range
	}
	if first+count < v.pages() && (g+count)&leafMask != 0 {
		hi-- // also holds pages of v above the range
	}
	if v.split {
		lo, hi = max(lo, 1), min(hi, len(v.dir)-1)
	}
	for k := lo; k < hi; k++ {
		if l := v.dir[k]; l != nil {
			pm.pool.leaves = append(pm.pool.leaves, l)
			v.dir[k] = nil
		}
	}
}

// NotifierRange describes an invalidated virtual range.
type NotifierRange struct {
	Start Addr
	End   Addr // exclusive
	// Reason tells the listener why the range is going away, mirroring the
	// distinct MMU-notifier call sites in Linux.
	Reason InvalidateReason
}

// InvalidateReason enumerates the mapping-change causes that fire notifiers.
type InvalidateReason int

const (
	// InvalidateUnmap: the range is being munmap'ed (e.g. free of a large
	// malloc'd buffer).
	InvalidateUnmap InvalidateReason = iota
	// InvalidateCOW: a page is being duplicated on copy-on-write.
	InvalidateCOW
	// InvalidateMigrate: the OS is moving the page to another frame.
	InvalidateMigrate
	// InvalidateSwap: the page is being written to swap.
	InvalidateSwap
	// InvalidateProtect: page permissions are changing (mprotect).
	InvalidateProtect

	numInvalidateReasons = iota
)

// String names the reason.
func (r InvalidateReason) String() string {
	switch r {
	case InvalidateUnmap:
		return "unmap"
	case InvalidateCOW:
		return "cow"
	case InvalidateMigrate:
		return "migrate"
	case InvalidateSwap:
		return "swap"
	case InvalidateProtect:
		return "mprotect"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Notifier receives MMU-notifier callbacks. InvalidateRange is called
// synchronously *before* the mapping change takes effect, exactly like
// mmu_notifier invalidate_range_start in Linux 2.6.27: listeners must drop
// their use of the pages (unpin) before returning. Contiguous runs of
// affected pages are batched into a single callback per range.
type Notifier interface {
	InvalidateRange(r NotifierRange)
}

// AddressSpace is a simulated process address space.
type AddressSpace struct {
	pid       int
	phys      *PhysMem
	vmas      []*vma // sorted by start
	notifiers []Notifier
	// notifying is the notify() recursion depth; while it is non-zero,
	// UnregisterNotifier nils the slot instead of shifting the slice
	// (notifiersDirty defers the compaction), so a callback removing a
	// listener never makes the iteration skip the next one.
	notifying      int
	notifiersDirty bool

	mmapNext Addr // bump pointer for fresh mappings

	// Statistics.
	faults      uint64
	cowBreaks   uint64
	swapIns     uint64
	notifyCount [numInvalidateReasons]uint64
}

// mmapBase is where anonymous mappings start; an arbitrary but recognizable
// constant well away from zero so nil-ish addresses fault loudly.
const mmapBase Addr = 0x7f00_0000_0000

// NewAddressSpace returns an empty address space for process pid backed by
// phys.
func NewAddressSpace(pid int, phys *PhysMem) *AddressSpace {
	return &AddressSpace{pid: pid, phys: phys, mmapNext: mmapBase}
}

// PID returns the owning process id.
func (as *AddressSpace) PID() int { return as.pid }

// Phys returns the backing physical memory.
func (as *AddressSpace) Phys() *PhysMem { return as.phys }

// Faults reports the number of demand faults served.
func (as *AddressSpace) Faults() uint64 { return as.faults }

// COWBreaks reports the number of copy-on-write duplications performed.
func (as *AddressSpace) COWBreaks() uint64 { return as.cowBreaks }

// SwapIns reports the number of pages faulted back from swap.
func (as *AddressSpace) SwapIns() uint64 { return as.swapIns }

// Notifications reports how many notifier callbacks have fired for reason r.
func (as *AddressSpace) Notifications(r InvalidateReason) uint64 {
	if r < 0 || r >= numInvalidateReasons {
		return 0
	}
	return as.notifyCount[r]
}

// RegisterNotifier attaches an MMU notifier to the address space (the
// driver does this when an endpoint is opened, paper §3.1).
func (as *AddressSpace) RegisterNotifier(n Notifier) {
	as.notifiers = append(as.notifiers, n)
}

// UnregisterNotifier detaches a notifier. Mid-callback removal is safe:
// the in-flight notify() sees the slot nil out instead of the list
// shifting under its cursor.
func (as *AddressSpace) UnregisterNotifier(n Notifier) {
	for i, x := range as.notifiers {
		if x == n {
			if as.notifying > 0 {
				as.notifiers[i] = nil
				as.notifiersDirty = true
			} else {
				as.notifiers = append(as.notifiers[:i], as.notifiers[i+1:]...)
			}
			return
		}
	}
}

// notify delivers one invalidation to every registered listener. It runs
// allocation-free (reclaim fires it once per stolen page): instead of
// snapshotting the list, it captures the length — listeners registered
// during a callback do not see the in-flight event, matching the
// srcu-protected semantics in Linux — and relies on UnregisterNotifier
// nil-ing slots mid-delivery. Compaction happens when the outermost
// delivery finishes.
func (as *AddressSpace) notify(start, end Addr, reason InvalidateReason) {
	as.notifyCount[reason]++
	as.notifying++
	count := len(as.notifiers)
	for i := 0; i < count; i++ {
		if n := as.notifiers[i]; n != nil {
			n.InvalidateRange(NotifierRange{Start: start, End: end, Reason: reason})
		}
	}
	as.notifying--
	if as.notifying == 0 && as.notifiersDirty {
		kept := as.notifiers[:0]
		for _, n := range as.notifiers {
			if n != nil {
				kept = append(kept, n)
			}
		}
		as.notifiers = kept
		as.notifiersDirty = false
	}
}

// findVMA returns the index of the vma containing a, or ok=false.
func (as *AddressSpace) findVMA(a Addr) (int, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].end > a })
	if i < len(as.vmas) && as.vmas[i].start <= a {
		return i, true
	}
	return i, false
}

// Mmap maps length bytes of fresh anonymous memory at a kernel-chosen
// address and returns that address. Pages materialize on first access.
func (as *AddressSpace) Mmap(length int) (Addr, error) {
	if length <= 0 {
		return 0, fmt.Errorf("vm: mmap length %d: %w", length, ErrBadAddress)
	}
	size := Addr(PageAlignUp(Addr(length)))
	addr := as.mmapNext
	as.mmapNext += size + PageSize // guard page gap
	as.insertVMA(newVMA(addr, addr+size))
	return addr, nil
}

// MmapFixed maps [addr, addr+length) exactly; used by the malloc arena to
// reuse freed ranges. The range must be page aligned and unmapped.
func (as *AddressSpace) MmapFixed(addr Addr, length int) error {
	if addr != PageAlignDown(addr) || length <= 0 {
		return ErrBadAddress
	}
	end := addr + PageAlignUp(Addr(length))
	for _, v := range as.vmas {
		if addr < v.end && v.start < end {
			return fmt.Errorf("vm: fixed mapping overlaps existing vma: %w", ErrBadAddress)
		}
	}
	as.insertVMA(newVMA(addr, end))
	return nil
}

func (as *AddressSpace) insertVMA(v *vma) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].start >= v.start })
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

// Munmap removes the mapping covering exactly [addr, addr+length) (page
// granular). MMU notifiers fire before the teardown. Pages that are still
// pinned after the notifiers return keep their frames alive (the pinner
// holds a frame reference), but the translation is gone — exactly the
// stale-DMA hazard a correct driver avoids by unpinning in the callback.
// The page-table leaves the range held alone go back to the pool.
func (as *AddressSpace) Munmap(addr Addr, length int) error {
	if length <= 0 {
		return ErrBadUnmap
	}
	start := PageAlignDown(addr)
	end := PageAlignUp(addr + Addr(length))
	// Require the range to be covered by VMAs (Linux tolerates holes; we
	// are stricter to catch allocator bugs).
	if !as.covered(start, end) {
		return ErrBadUnmap
	}
	as.notify(start, end, InvalidateUnmap)
	as.forEachPTE(start, end, as.dropPTE)
	as.forEachVMA(start, end, func(v *vma, first, count int) {
		v.dropLeaves(as.phys, first, count)
	})
	as.removeVMARange(start, end)
	return nil
}

// forEachVMA walks the vmas overlapping [start, end), invoking fn with each
// vma and the page-index range of the overlap. The range need not be fully
// covered; holes are skipped.
func (as *AddressSpace) forEachVMA(start, end Addr, fn func(v *vma, firstPage, pageCount int)) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].end > start })
	for ; i < len(as.vmas) && as.vmas[i].start < end; i++ {
		v := as.vmas[i]
		lo, hi := v.start, v.end
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		fn(v, v.pageOf(lo), int((hi-lo)>>PageShift))
	}
}

// forEachPTE calls fn with the PTE of every page in [start, end) whose
// leaf exists, a leaf at a time. Absent leaves hold no present or swapped
// page, so walks that act only on those skip them without allocating.
func (as *AddressSpace) forEachPTE(start, end Addr, fn func(p *pte)) {
	as.forEachVMA(start, end, func(v *vma, first, count int) {
		for i := first; i < first+count; {
			ptes, n := v.leafRun(i, first+count, nil)
			for j := range ptes {
				fn(&ptes[j])
			}
			i += n
		}
	})
}

// covered reports whether [start, end) lies entirely inside mappings.
func (as *AddressSpace) covered(start, end Addr) bool {
	a := start
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].end > start })
	for ; i < len(as.vmas); i++ {
		v := as.vmas[i]
		if v.start > a {
			return false
		}
		a = v.end
		if a >= end {
			return true
		}
	}
	return a >= end
}

func (as *AddressSpace) removeVMARange(start, end Addr) {
	var out []*vma
	for _, v := range as.vmas {
		if v.end <= start || v.start >= end {
			out = append(out, v)
			continue
		}
		if v.start < start {
			out = append(out, v.sub(0, v.pageOf(start)))
		}
		if v.end > end {
			skip := v.pageOf(end)
			out = append(out, v.sub(skip, v.pages()-skip))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	as.vmas = out
}

// dropPTE tears down a translation, releasing the frame reference held by
// the mapping. Swapped PTEs release their swap slot, which the occupancy
// accounting must see.
func (as *AddressSpace) dropPTE(p *pte) {
	if p.present {
		p.frame.mapRefs--
		// Pins held through this mapping keep their frame references; they
		// are tracked by the Pinned handle, not by the PTE.
		if p.frame.mapRefs == 0 && p.frame.pinRefs == 0 {
			as.phys.release(p.frame)
		} else if p.frame.owner == as {
			// The surviving mapper is some other address space; clear the
			// now-stale reverse mapping so reclaim does not chase it. The
			// survivor re-owns the frame at its next touch.
			p.frame.owner = nil
		}
	} else if p.swapped {
		as.phys.swapRemoved(p.swapPg)
		as.phys.putPage(p.swapPg)
	}
	*p = pte{}
}

// Mapped reports whether every page of [addr, addr+length) lies inside a
// mapping.
func (as *AddressSpace) Mapped(addr Addr, length int) bool {
	if length <= 0 {
		return false
	}
	return as.covered(PageAlignDown(addr), PageAlignUp(addr+Addr(length)))
}

// faultPTE materializes the PTE p of page a (demand-zero, swap-in, or COW
// break on write) and returns its frame; forWrite causes COW duplication.
// Allocation goes through allocFrame, so hitting physical capacity
// triggers a direct reclaim stall instead of failing outright.
func (as *AddressSpace) faultPTE(a Addr, p *pte, forWrite bool) (*Frame, error) {
	if p.swapped {
		f, err := as.allocFrame()
		if err != nil {
			return nil, err
		}
		as.phys.swapRemoved(p.swapPg)
		f.pg = p.swapPg // the swap slot's reference moves to the frame
		p.swapPg = nil
		p.swapped = false
		p.frame = f
		p.present = true
		// Restore the pre-swap writability: a page that was COW-shared
		// (or mprotect'ed read-only) must not regain write permission by
		// taking a swap round trip — the write below still breaks COW.
		p.writable = p.swapWritable
		p.swapWritable = false
		f.mapRefs++
		as.installFrame(p, a)
		as.swapIns++
		as.faults++
	}
	if !p.present {
		f, err := as.allocFrame()
		if err != nil {
			return nil, err
		}
		p.frame = f
		p.present = true
		p.writable = true
		f.mapRefs++
		as.installFrame(p, a)
		as.faults++
	}
	if forWrite && !p.writable {
		if err := as.breakCOW(a, p); err != nil {
			return nil, err
		}
	}
	if as.phys.lruTracked() {
		as.touchFrame(p, a)
	}
	return p.frame, nil
}

// breakCOW duplicates a COW-shared page into a private frame. The notifier
// fires first because any device translation pointing at the shared frame
// is about to become wrong for this process (paper §2.1).
func (as *AddressSpace) breakCOW(a Addr, p *pte) error {
	as.notify(a, a+PageSize, InvalidateCOW)
	old := p.frame
	// Transient kernel reference (get_page-style): the allocation below
	// may enter direct reclaim, which must not steal the very page being
	// duplicated out from under us.
	old.kernRefs++
	f, err := as.allocFrame()
	old.kernRefs--
	if err != nil {
		return err
	}
	// Copy-on-reference: the new frame shares the old contents until one
	// side writes while the other still holds them.
	f.pg = old.refPage()
	old.mapRefs--
	if old.mapRefs == 0 && old.pinRefs == 0 {
		as.phys.release(old)
	}
	p.frame = f
	p.writable = true
	f.mapRefs++
	as.installFrame(p, a)
	as.cowBreaks++
	return nil
}

// MarkCOW makes the pages of [addr, addr+length) copy-on-write, as a fork
// would: present pages become read-only shares; the next write duplicates
// them (and fires the COW notifier).
func (as *AddressSpace) MarkCOW(addr Addr, length int) error {
	start := PageAlignDown(addr)
	end := PageAlignUp(addr + Addr(length))
	if !as.covered(start, end) {
		return ErrBadAddress
	}
	as.forEachPTE(start, end, func(p *pte) {
		if p.present {
			p.writable = false
		}
	})
	return nil
}

// MProtect changes the writability of the pages covering
// [addr, addr+length). Downgrading to read-only fires MMU notifiers (as
// change_protection does in Linux): device translations that assumed write
// access must be dropped. Restoring write access notifies nobody; the next
// write simply proceeds (present read-only pages are COW-broken, which is
// the conservative but safe behaviour for shared frames).
func (as *AddressSpace) MProtect(addr Addr, length int, writable bool) error {
	start := PageAlignDown(addr)
	end := PageAlignUp(addr + Addr(length))
	if !as.covered(start, end) {
		return ErrBadAddress
	}
	if !writable {
		as.notify(start, end, InvalidateProtect)
	}
	as.forEachPTE(start, end, func(p *pte) {
		if p.present {
			p.writable = writable
		}
	})
	return nil
}

// Write copies data into the address space at addr, demand-faulting and
// COW-breaking as needed (this is the application touching its buffer).
// The mapping is resolved once per vma, not once per page.
func (as *AddressSpace) Write(addr Addr, data []byte) error {
	return as.rangeAccess(addr, len(data), true, func(f *Frame, frameOff, n, done int) {
		f.Write(frameOff, data[done:done+n])
	})
}

// Read copies len(dst) bytes from the address space at addr into dst.
func (as *AddressSpace) Read(addr Addr, dst []byte) error {
	return as.rangeAccess(addr, len(dst), false, func(f *Frame, frameOff, n, done int) {
		f.Read(frameOff, dst[done:done+n])
	})
}

// WriteBuf writes the next n bytes of w into the address space at addr,
// faulting exactly as Write does. A whole-page chunk landing on a whole
// page is adopted by reference and a partial page spliced or copied, as
// BufWriter does for pinned frames, so writing the same PageBuf again and
// again moves no bytes.
func (as *AddressSpace) WriteBuf(addr Addr, w *BufWriter, n int) error {
	return as.rangeAccess(addr, n, true, func(f *Frame, frameOff, m, _ int) {
		w.WriteTo(f, frameOff, m)
	})
}

// ReadBuf appends to b a copy-on-reference view of length bytes at addr,
// faulting exactly as Read does: one page reference per page instead of a
// copy, with Buf's snapshot semantics. The references are b's to release,
// including those appended before an error.
func (as *AddressSpace) ReadBuf(addr Addr, length int, b *Buf) error {
	return as.rangeAccess(addr, length, false, func(f *Frame, frameOff, n, _ int) {
		b.AppendFrame(f, frameOff, n)
	})
}

// rangeAccess walks [addr, addr+length) once, a leaf at a time, faulting
// pages in as needed and invoking fn for each page-contiguous piece.
func (as *AddressSpace) rangeAccess(addr Addr, length int, forWrite bool,
	fn func(f *Frame, frameOff, n, done int)) error {
	done := 0
	for done < length {
		a := addr + Addr(done)
		vi, ok := as.findVMA(a)
		if !ok {
			return fmt.Errorf("vm: fault at %#x: %w", uint64(a), ErrBadAddress)
		}
		v := as.vmas[vi]
		limit := min(v.pages(), v.pageOf(PageAlignUp(addr+Addr(length))))
		for i := v.pageOf(PageAlignDown(a)); i < limit; {
			ptes, run := v.leafRun(i, limit, as.phys)
			for j := range ptes {
				a = addr + Addr(done)
				page := PageAlignDown(a)
				f, err := as.faultPTE(page, &ptes[j], forWrite)
				if err != nil {
					return err
				}
				frameOff := int(a - page)
				n := min(PageSize-frameOff, length-done)
				fn(f, frameOff, n, done)
				done += n
			}
			i += run
		}
	}
	return nil
}

// PageResident reports whether the page containing a is materialized:
// mapped, present, and not swapped out. This is the residency test an
// ODP-capable device makes before translating through the live page
// table — a non-resident page means the access faults instead.
func (as *AddressSpace) PageResident(a Addr) bool {
	p := as.lookup(a)
	return p != nil && p.present
}

// lookup returns the PTE of the page containing a, or nil when a is
// unmapped or its leaf is absent. It allocates nothing.
func (as *AddressSpace) lookup(a Addr) *pte {
	a = PageAlignDown(a)
	vi, ok := as.findVMA(a)
	if !ok {
		return nil
	}
	v := as.vmas[vi]
	i := v.pageOf(a)
	if ptes, _ := v.leafRun(i, i+1, nil); ptes != nil {
		return &ptes[0]
	}
	return nil
}

// MissingPages walks count pages starting at the page containing addr,
// resolving the mapping once per VMA and a leaf at a time, and returns
// the indexes — relative to the first page — of pages that are not
// resident. Unmapped pages count as missing. A nil result means the
// whole range is resident; this is the bulk form of PageResident the
// ODP device check uses on its packet hot path.
func (as *AddressSpace) MissingPages(addr Addr, count int) []int {
	var missing []int
	start := PageAlignDown(addr)
	i := 0
	for i < count {
		a := start + Addr(i)<<PageShift
		vi, ok := as.findVMA(a)
		if !ok {
			// Unmapped gap: everything up to the next VMA (vi is its
			// index) is missing in one step, no per-page re-search.
			gapEnd := count
			if vi < len(as.vmas) {
				if n := int((as.vmas[vi].start - start) >> PageShift); n < gapEnd {
					gapEnd = n
				}
			}
			for ; i < gapEnd; i++ {
				missing = append(missing, i)
			}
			continue
		}
		v := as.vmas[vi]
		for idx := v.pageOf(a); i < count && idx < v.pages(); {
			ptes, n := v.leafRun(idx, min(v.pages(), idx+count-i), nil)
			for j := range n {
				if ptes == nil || !ptes[j].present {
					missing = append(missing, i+j)
				}
			}
			idx, i = idx+n, i+n
		}
	}
	return missing
}

// Populate materializes count pages starting at the page containing
// addr, faulting in demand-zero and swapped pages (read faults: COW
// sharing is left intact; a later write breaks it). Like the other
// range operations it resolves the mapping once per VMA and walks a leaf
// at a time. It returns the number of pages that were not resident before;
// an unmapped page stops the walk with ErrBadAddress. This is the host
// side of an ODP page request: the device faulted, the kernel faults
// the pages in, the device retries.
func (as *AddressSpace) Populate(addr Addr, count int) (int, error) {
	n := 0
	start := PageAlignDown(addr)
	i := 0
	for i < count {
		a := start + Addr(i)<<PageShift
		vi, ok := as.findVMA(a)
		if !ok {
			return n, fmt.Errorf("vm: populate at %#x: %w", uint64(a), ErrBadAddress)
		}
		v := as.vmas[vi]
		for idx := v.pageOf(a); i < count && idx < v.pages(); {
			ptes, run := v.leafRun(idx, min(v.pages(), idx+count-i), as.phys)
			for j := range ptes {
				if pt := &ptes[j]; !pt.present {
					if _, err := as.faultPTE(v.start+Addr(idx+j)<<PageShift, pt, false); err != nil {
						return n, err
					}
					n++
				}
			}
			idx, i = idx+run, i+run
		}
	}
	return n, nil
}

// FrameAt returns the current frame backing page-aligned address a, if
// present. Used by invariant tests to detect stale device translations.
func (as *AddressSpace) FrameAt(a Addr) (*Frame, bool) {
	p := as.lookup(a)
	if p == nil || !p.present {
		return nil, false
	}
	return p.frame, true
}

// Migrate moves the frames of [addr, addr+length) to fresh frames, as NUMA
// balancing or compaction would. Pinned pages are skipped — pinning exists
// precisely to prevent this (paper §2.1). Notifiers fire per contiguous run
// of migrated pages, before the run moves. It returns the number of pages
// actually migrated.
func (as *AddressSpace) Migrate(addr Addr, length int) (int, error) {
	start := PageAlignDown(addr)
	end := PageAlignUp(addr + Addr(length))
	if !as.covered(start, end) {
		return 0, ErrBadAddress
	}
	moved := 0
	err := as.migratableRuns(start, end, InvalidateMigrate, func(p *pte, a Addr) error {
		if !p.present {
			return nil // direct reclaim swapped it out mid-run
		}
		old := p.frame
		// Transient reference so direct reclaim inside the allocation
		// cannot steal the page being migrated.
		old.kernRefs++
		f, err := as.allocFrame()
		old.kernRefs--
		if err != nil {
			return err
		}
		if old.mapRefs > 1 {
			// Still mapped elsewhere (COW share): the moved copy
			// references the page, the old frame keeps it.
			f.pg = old.refPage()
		} else {
			f.pg, old.pg = old.pg, nil
		}
		old.mapRefs--
		if old.mapRefs == 0 && old.pinRefs == 0 {
			as.phys.release(old)
		}
		p.frame = f
		f.mapRefs++
		as.installFrame(p, a)
		moved++
		return nil
	})
	return moved, err
}

func migratable(p *pte) bool {
	return p.present && p.frame.pinRefs == 0
}

// migratableRuns finds the runs of migratable pages in [start, end), a
// leaf at a time (absent leaves hold none), and for each run fires one
// batched reason notifier and then calls fn with each of its PTEs and
// page addresses. An error from fn stops the walk.
func (as *AddressSpace) migratableRuns(start, end Addr, reason InvalidateReason, fn func(p *pte, a Addr) error) error {
	var walkErr error
	as.forEachVMA(start, end, func(v *vma, first, count int) {
		limit := first + count
		for i := first; walkErr == nil && i < limit; {
			lo := v.scan(i, limit, false)
			i = v.scan(lo, limit, true)
			if lo == i {
				continue
			}
			as.notify(v.start+Addr(lo)<<PageShift, v.start+Addr(i)<<PageShift, reason)
			for j := lo; j < i; {
				ptes, n := v.leafRun(j, i, nil)
				for k := range ptes {
					if walkErr = fn(&ptes[k], v.start+Addr(j+k)<<PageShift); walkErr != nil {
						return
					}
				}
				j += n
			}
		}
	})
	return walkErr
}

// scan returns the first page in [i, limit) of v whose migratability is
// not want, or limit. Pages of an absent leaf are not migratable.
func (v *vma) scan(i, limit int, want bool) int {
	for i < limit {
		ptes, n := v.leafRun(i, limit, nil)
		if ptes == nil && want {
			return i
		}
		for j := range ptes {
			if migratable(&ptes[j]) != want {
				return i + j
			}
		}
		i += n
	}
	return limit
}

// SwapOut writes the pages of [addr, addr+length) to swap and frees their
// frames. Pinned pages are skipped. Notifiers fire per contiguous run of
// affected pages. It returns the number of pages swapped.
func (as *AddressSpace) SwapOut(addr Addr, length int) (int, error) {
	start := PageAlignDown(addr)
	end := PageAlignUp(addr + Addr(length))
	if !as.covered(start, end) {
		return 0, ErrBadAddress
	}
	swapped := 0
	as.migratableRuns(start, end, InvalidateSwap, func(p *pte, _ Addr) error {
		as.swapOutPTE(p)
		swapped++
		return nil
	})
	return swapped, nil
}

// swapOutPTE moves one present, unpinned PTE's contents to swap. The
// caller has already fired the InvalidateSwap notifier. Writability is
// preserved for the swap-in path, and a frame still mapped elsewhere
// (COW share) keeps its data: the swap slot takes a copy-on-reference
// snapshot instead of stealing the live buffer.
func (as *AddressSpace) swapOutPTE(p *pte) {
	old := p.frame
	p.swapWritable = p.writable
	if old.mapRefs > 1 {
		p.swapPg = old.refPage()
	} else {
		p.swapPg, old.pg = old.pg, nil
	}
	old.mapRefs--
	if old.mapRefs == 0 && old.pinRefs == 0 {
		as.phys.release(old)
	}
	p.frame = nil
	p.present = false
	p.writable = false
	p.swapped = true
	as.phys.swapAdded(p.swapPg)
}
