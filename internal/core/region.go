// Package core implements the paper's contribution: memory pinning
// decoupled from the application.
//
// A user region (paper §2.2) is a possibly-vectorial set of user-space
// segments declared once to the driver and referenced afterwards by a small
// integer descriptor. Declaring a region does NOT pin it: the driver pins
// on demand when a communication request needs the pages, may unpin at any
// time (MMU-notifier invalidation, pinned-page pressure), and repins later
// — all without telling user space (paper §3.1). Pinning can also be
// overlapped with communication: the pin runs as deferred kernel work in
// page chunks behind a progress cursor while the transfer is already on the
// wire (paper §3.3).
//
// The package has two halves mirroring Figure 4 of the paper:
//
//   - RegionManager — the kernel/driver side: declared regions, the pin
//     engine, MMU-notifier hookup, pinned-page accounting with LRU release.
//   - Cache — the user-space side: an LRU of declared regions keyed by
//     segment list, so repeated use of the same buffer reuses the same
//     descriptor without a new declaration (the "pin-down cache" lineage,
//     Tezuka et al. 1998, made reliable by keeping invalidation in the
//     kernel).
package core

import (
	"errors"
	"fmt"

	"omxsim/internal/policy"
	"omxsim/internal/vm"
)

// Segment is one contiguous piece of a user region.
type Segment struct {
	Addr vm.Addr
	Len  int
}

// RegionID is the integer descriptor user space uses to name a declared
// region in communication requests (paper §3.2: requests carry only this).
type RegionID uint32

// PinPolicy and the three values below are aliases the omxbench module
// still imports; ROADMAP item 2, which lifts the freeze omxbench puts on
// the APIs, deletes them. Nothing else may use them.
//
// Deprecated: a pinning strategy is a policy.Policy.
type PinPolicy = policy.Policy

// Deprecated: use the policy package's values.
var (
	PinEachComm = policy.PinEachComm
	OnDemand    = policy.OnDemand
	Overlapped  = policy.Overlapped
)

// Errors returned by region operations.
var (
	ErrUnknownRegion = errors.New("core: unknown region id")
	ErrRegionBusy    = errors.New("core: region has active users")
	ErrPinFailed     = errors.New("core: pinning failed (invalid segment?)")
	ErrTooManySegs   = errors.New("core: too many segments")
)

// MaxSegments bounds a vectorial region's segment count (mirrors the
// driver's fixed-size declaration buffer).
const MaxSegments = 256

// pinState tracks a region's pages.
type pinState int

const (
	stateUnpinned pinState = iota
	statePinning           // overlapped pin in progress
	statePinned
)

// segPin is one segment's pin state: the pages covering it and the handle
// its pin chunks extend in page order (nil while none of it is pinned).
type segPin struct {
	pages int
	pin   *vm.Pinned
}

// Region is a declared user region (driver side).
type Region struct {
	id     RegionID
	segs   []Segment
	segPin []segPin
	bytes  int
	pages  int
	// noPin marks a page-table-translated region (no-pinning and ODP
	// backends): accesses go through the live page table instead of
	// pinned frames.
	noPin bool
	// odp additionally gates accesses on page residency: a non-resident
	// page makes Ready false and raises an ODP fault to the manager.
	odp bool
	as  *vm.AddressSpace
	mgr *Manager
	// lo and hi bound the pages the segments span: the region's key in
	// the manager's address index.
	lo, hi vm.Addr

	// odpPending tracks region page indexes with an in-flight ODP fault
	// request, so each page is requested from the host once per miss.
	odpPending map[int]struct{}

	// parent, when non-nil, marks this region as a subrange *view* of a
	// larger cached declaration: the cache hands these out for requests
	// fully covered by an existing entry. A view holds no driver state of
	// its own — pinning, use counts, and accesses all delegate to the
	// parent at parentOff/parentPageOff. Views never appear in
	// Manager.regions and share the parent's descriptor.
	parent        *Region
	parentOff     int // byte offset of the view within the parent
	parentPageOff int // page offset of the view within the parent

	state       pinState
	pinnedPages int // progress cursor, in region page order across segments
	epoch       uint64
	useCount    int
	lastUse     int64 // LRU tick from the manager

	// waiters are completions waiting for the whole region to be pinned
	// (synchronous policies) keyed off the current epoch.
	waiters []pinWaiter
	// prefixWaiters wait for a pin-progress threshold (overlapped prefix).
	prefixWaiters []prefixWaiter

	invalidated bool // saw a notifier hit while declared (stats/debug)
}

type pinWaiter struct {
	epoch uint64
	done  func(err error)
}

type prefixWaiter struct {
	epoch uint64
	pages int
	done  func(err error)
}

// newSubRegion builds a view of seg within parent (a single-segment
// declaration whose byte span covers seg).
func newSubRegion(parent *Region, seg Segment) *Region {
	if len(parent.segs) != 1 {
		panic("core: subrange view of a vectorial region")
	}
	pages := vm.PageCount(seg.Addr, seg.Len)
	return &Region{
		id:     parent.id,
		segs:   []Segment{seg},
		segPin: []segPin{{pages: pages}},
		bytes:  seg.Len,
		pages:  pages,
		noPin:  parent.noPin,
		odp:    parent.odp,
		as:     parent.as,
		mgr:    parent.mgr,

		parent:    parent,
		parentOff: int(seg.Addr - parent.segs[0].Addr),
		parentPageOff: int((vm.PageAlignDown(seg.Addr) -
			vm.PageAlignDown(parent.segs[0].Addr)) >> vm.PageShift),
	}
}

// Base returns the underlying declared region: the parent for subrange
// views, the region itself otherwise. Driver-side identity (Manager
// bookkeeping, abort matching, cache reference counting) always works on
// the base.
func (r *Region) Base() *Region {
	if r.parent != nil {
		return r.parent
	}
	return r
}

// IsView reports whether the region is a subrange view of a larger
// declaration.
func (r *Region) IsView() bool { return r.parent != nil }

// ID returns the region's descriptor.
func (r *Region) ID() RegionID { return r.id }

// Bytes returns the total byte length across segments.
func (r *Region) Bytes() int { return r.bytes }

// Pages returns the total page count across segments.
func (r *Region) Pages() int { return r.pages }

// PinnedPages returns the pin progress cursor. For a view it is the
// parent's cursor projected onto the view's page range.
func (r *Region) PinnedPages() int {
	if r.parent != nil {
		n := r.parent.pinnedPages - r.parentPageOff
		if n < 0 {
			n = 0
		}
		if n > r.pages {
			n = r.pages
		}
		return n
	}
	return r.pinnedPages
}

// Pinned reports whether every page is pinned (for a view: every page of
// the view's range within the parent).
func (r *Region) Pinned() bool {
	if r.parent != nil {
		return r.parent.state != stateUnpinned && r.PinnedPages() == r.pages
	}
	return r.state == statePinned
}

// InUse reports whether any communication currently references the region.
func (r *Region) InUse() bool { return r.Base().useCount > 0 }

// Segments returns a copy of the region's segment list.
func (r *Region) Segments() []Segment {
	out := make([]Segment, len(r.segs))
	copy(out, r.segs)
	return out
}

// pageSpan computes, for a byte range [off, off+length) within the region's
// logical byte order, the inclusive range of region page indices it touches.
// Region pages are numbered across segments in declaration order.
func (r *Region) pageSpan(off, length int) (firstPage, lastPage int, err error) {
	if off < 0 || length <= 0 || off+length > r.bytes {
		return 0, 0, fmt.Errorf("core: byte range [%d,%d) outside region of %d bytes",
			off, off+length, r.bytes)
	}
	pageBase := 0
	remainingOff := off
	remaining := length
	first, last := -1, -1
	for si, seg := range r.segs {
		if remainingOff >= seg.Len {
			remainingOff -= seg.Len
			pageBase += r.segPin[si].pages
			continue
		}
		// Range starts (or continues) in this segment.
		segStart := remainingOff
		n := seg.Len - segStart
		if n > remaining {
			n = remaining
		}
		firstByte := seg.Addr + vm.Addr(segStart)
		lastByte := seg.Addr + vm.Addr(segStart+n-1)
		fp := pageBase + int((vm.PageAlignDown(firstByte)-vm.PageAlignDown(seg.Addr))>>vm.PageShift)
		lp := pageBase + int((vm.PageAlignDown(lastByte)-vm.PageAlignDown(seg.Addr))>>vm.PageShift)
		if first == -1 {
			first = fp
		}
		last = lp
		remaining -= n
		remainingOff = 0
		pageBase += r.segPin[si].pages
		if remaining == 0 {
			break
		}
	}
	if remaining != 0 || first == -1 {
		return 0, 0, fmt.Errorf("core: internal: range [%d,%d) not covered by segments", off, off+length)
	}
	return first, last, nil
}

// Ready reports whether the byte range [off, off+length) lies entirely
// within the pinned prefix — the accessor test the paper adds for
// overlapped pinning ("some additional tests on the region descriptor when
// an incoming packet is processed", §4.2). Page-table-translated regions
// are always ready except under ODP, where a non-resident page makes the
// range not ready and — modeling the NIC raising a PCIe page request —
// asks the manager to fault the missing pages in; the caller drops the
// packet and the protocol's retry machinery provides the backoff.
func (r *Region) Ready(off, length int) bool {
	if r.parent != nil {
		if off < 0 || length < 0 || off+length > r.bytes {
			return false
		}
		return r.parent.Ready(r.parentOff+off, length)
	}
	if r.noPin {
		if off < 0 || length < 0 || off+length > r.bytes {
			return false
		}
		if !r.odp || length == 0 {
			return true
		}
		return r.odpReady(off, length)
	}
	if r.state == statePinned {
		return true
	}
	if length <= 0 {
		return off >= 0 && off <= r.bytes
	}
	_, last, err := r.pageSpan(off, length)
	if err != nil {
		return false
	}
	return last < r.pinnedPages
}

// odpReady checks residency of every page under [off, off+length) with
// one bulk walk per segment (this runs on the packet hot path) and
// collects the misses into one fault request to the manager.
func (r *Region) odpReady(off, length int) bool {
	first, last, err := r.pageSpan(off, length)
	if err != nil {
		return false
	}
	var missing []int
	base := 0
	for si, seg := range r.segs {
		segPages := r.segPin[si].pages
		lo, hi := first-base, last-base
		if lo < 0 {
			lo = 0
		}
		if hi > segPages-1 {
			hi = segPages - 1
		}
		if lo <= hi {
			start := vm.PageAlignDown(seg.Addr) + vm.Addr(lo)<<vm.PageShift
			for _, m := range r.as.MissingPages(start, hi-lo+1) {
				missing = append(missing, base+lo+m)
			}
		}
		base += segPages
		if base > last {
			break
		}
	}
	if len(missing) == 0 {
		return true
	}
	r.mgr.odpFault(r, missing)
	return false
}

// segments splits the region byte range [off, off+length) into its
// per-segment pieces and calls fn with each piece's segment index, virtual
// address and length, stopping at the first error. Every accessor walks
// the range through it: page-table-translated regions hand each piece to
// the address space, pinned ones split it further into pinned frames
// (access).
func (r *Region) segments(off, length int, fn func(si int, a vm.Addr, n int) error) error {
	if off < 0 || off+length > r.bytes {
		return fmt.Errorf("core: access [%d,%d) outside region of %d bytes", off, off+length, r.bytes)
	}
	done := 0
	for si, seg := range r.segs {
		if done == length {
			break
		}
		if off >= seg.Len {
			off -= seg.Len
			continue
		}
		n := min(seg.Len-off, length-done)
		if err := fn(si, seg.Addr+vm.Addr(off), n); err != nil {
			return err
		}
		off, done = 0, done+n
	}
	return nil
}

// access iterates the pinned frames covering [off, off+length), resolving
// each through its segment's pin handle.
func (r *Region) access(off, length int, fn func(f *vm.Frame, frameOff, n int)) error {
	if !r.Ready(off, length) {
		return fmt.Errorf("core: access [%d,%d) beyond pinned prefix (%d/%d pages): %w",
			off, off+length, r.pinnedPages, r.pages, ErrPinFailed)
	}
	return r.segments(off, length, func(si int, a vm.Addr, n int) error {
		pin := r.segPin[si].pin
		for n > 0 {
			frameOff := int(a & (vm.PageSize - 1))
			m := min(vm.PageSize-frameOff, n)
			fn(pin.Frame(int((vm.PageAlignDown(a)-pin.Start())>>vm.PageShift)), frameOff, m)
			a += vm.Addr(m)
			n -= m
		}
		return nil
	})
}

// ReadBufAt fills b, which must be empty, with a zero-copy
// (copy-on-reference) view of length bytes at region byte offset off.
// This is the device-side read the sender's pull path uses: O(pages)
// references instead of O(bytes) copies; see vm.Buf for the snapshot
// semantics. Pinned regions read through their pinned frames and the
// range must be Ready; page-table-translated ones (the NIC-MMU model) lend
// the live page table's pages through vm.AddressSpace.ReadBuf. The view
// holds page references: its final consumer must Release it. On an error
// b is left released.
func (r *Region) ReadBufAt(off, length int, b *vm.Buf) error {
	if r.parent != nil {
		if off < 0 || off+length > r.bytes {
			return fmt.Errorf("core: access [%d,%d) outside view of %d bytes",
				off, off+length, r.bytes)
		}
		return r.parent.ReadBufAt(r.parentOff+off, length, b)
	}
	// Each segment's piece of the range spans at most its length/PageSize+2
	// pages; a Buf refilled after Release already has the room.
	b.Grow(length/vm.PageSize + 2*len(r.segs))
	var err error
	if r.noPin {
		err = r.segments(off, length, func(_ int, a vm.Addr, n int) error {
			return r.as.ReadBuf(a, n, b)
		})
	} else {
		err = r.access(off, length, b.AppendFrame)
	}
	if err != nil {
		b.Release()
	}
	return err
}

// WriteBufAt writes a zero-copy view into the region at byte offset off,
// adopting whole-page chunks by reference (the receive-side analogue of
// ReadBufAt): into the pinned frames, which must be Ready, or through the
// live page table for page-table-translated regions.
func (r *Region) WriteBufAt(off int, b *vm.Buf) error {
	if r.parent != nil {
		if off < 0 || off+b.Len() > r.bytes {
			return fmt.Errorf("core: access [%d,%d) outside view of %d bytes",
				off, off+b.Len(), r.bytes)
		}
		return r.parent.WriteBufAt(r.parentOff+off, b)
	}
	w := vm.NewBufWriter(b)
	if r.noPin {
		return r.segments(off, b.Len(), func(_ int, a vm.Addr, n int) error {
			return r.as.WriteBuf(a, &w, n)
		})
	}
	return r.access(off, b.Len(), w.WriteTo)
}

// pinnedOverlaps reports whether [start,end) intersects the region's
// pinned prefix — the pages whose frames the driver actually holds.
func (r *Region) pinnedOverlaps(start, end vm.Addr) bool {
	base := 0
	for si, seg := range r.segs {
		pinnedInSeg := r.pinnedPages - base
		if pinnedInSeg <= 0 {
			return false
		}
		if pinnedInSeg > r.segPin[si].pages {
			pinnedInSeg = r.segPin[si].pages
		}
		sStart := vm.PageAlignDown(seg.Addr)
		sEnd := sStart + vm.Addr(pinnedInSeg)<<vm.PageShift
		if start < sEnd && sStart < end {
			return true
		}
		base += r.segPin[si].pages
	}
	return false
}

// overlaps reports whether the virtual range [start,end) intersects any
// segment of the region.
func (r *Region) overlaps(start, end vm.Addr) bool {
	for _, seg := range r.segs {
		sStart := vm.PageAlignDown(seg.Addr)
		sEnd := vm.PageAlignUp(seg.Addr + vm.Addr(seg.Len))
		if start < sEnd && sStart < end {
			return true
		}
	}
	return false
}
