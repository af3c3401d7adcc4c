package vm

import "fmt"

// Pinned is a get_user_pages-style handle: a set of page frames whose
// physical location is guaranteed stable until Unpin. The handle holds one
// pin reference per page; while any pin reference exists the frame cannot be
// migrated, swapped, or freed (even if the mapping goes away, the frame
// itself survives until the last unpin). Extend grows a handle in page
// order, so one handle can hold a whole segment pinned chunk by chunk.
type Pinned struct {
	as     *AddressSpace
	start  Addr // page aligned
	frames []FrameRef
	active bool
}

// Pin pins the pages covering [addr, addr+length), faulting them in as
// needed, and returns a handle exposing their frames. It fails with
// ErrBadAddress if any page is outside a mapping — the paper's "application
// gave an invalid segment" case, detected at pin time rather than at region
// declaration (§3.1).
func (as *AddressSpace) Pin(addr Addr, length int) (*Pinned, error) {
	if length <= 0 {
		return nil, fmt.Errorf("vm: pin of %d bytes: %w", length, ErrBadAddress)
	}
	return as.PinPages(addr, 0, PageCount(addr, length))
}

// PinPages pins exactly count pages starting at the page containing addr,
// beginning at page index first. The returned handle covers only the
// requested pages.
func (as *AddressSpace) PinPages(addr Addr, first, count int) (*Pinned, error) {
	if count <= 0 || first < 0 {
		return nil, fmt.Errorf("vm: pin pages first=%d count=%d: %w", first, count, ErrBadAddress)
	}
	p := as.NewPin(PageAlignDown(addr)+Addr(first)<<PageShift, count)
	if err := p.Extend(count); err != nil {
		return nil, err
	}
	return p, nil
}

// NewPin returns a handle that holds no pins yet, with room for the pages
// pages starting at the page containing addr. It is the incremental
// primitive behind overlapped pinning: the driver pins a segment in chunks,
// each Extend pinning the next pages in order, so the segment keeps one
// handle and one reference per pinned page however many chunks it takes.
func (as *AddressSpace) NewPin(addr Addr, pages int) *Pinned {
	return &Pinned{as: as, start: PageAlignDown(addr), frames: make([]FrameRef, 0, pages), active: true}
}

// Extend pins the n pages that follow the handle's pinned pages. It is the
// range-based get_user_pages: it resolves the mapping once per vma and
// walks the page table a leaf at a time — one traversal, no per-page
// lookups (the batching NP-RDMA and eBPF-mm identify as the difference
// between per-page and per-range costs). If a page is outside a mapping or
// cannot be faulted in, Extend unpins the pages it pinned itself and fails;
// the pages pinned before the call stay pinned.
func (p *Pinned) Extend(n int) error {
	if !p.active {
		return fmt.Errorf("vm: extend of an unpinned handle: %w", ErrDoubleUnpin)
	}
	as, from := p.as, len(p.frames)
	a := p.start + Addr(from)<<PageShift
	end := a + Addr(n)<<PageShift
	for a < end {
		vi, ok := as.findVMA(a)
		if !ok {
			p.unpinFrom(from)
			return fmt.Errorf("vm: pin at %#x: %w", uint64(a), ErrBadAddress)
		}
		v := as.vmas[vi]
		limit := min(v.pages(), v.pageOf(end))
		for i := v.pageOf(a); i < limit; {
			ptes, run := v.leafRun(i, limit, as.phys)
			for j := range ptes {
				// Pinning faults for write: the device may DMA into the
				// page, so a COW-shared page must be broken now, not when
				// the DMA lands.
				f, err := as.faultPTE(a, &ptes[j], true)
				if err != nil {
					p.unpinFrom(from)
					return err
				}
				f.pinRefs++
				p.frames = append(p.frames, f.ref())
				a += PageSize
			}
			i += run
		}
	}
	return nil
}

// NumPages reports the number of pinned pages.
func (p *Pinned) NumPages() int { return len(p.frames) }

// Start returns the first pinned page's virtual address.
func (p *Pinned) Start() Addr { return p.start }

// Active reports whether the handle still holds its pins.
func (p *Pinned) Active() bool { return p.active }

// Frame returns pinned page i's frame. This is the translation a driver
// uses for device access: stable for the lifetime of the handle.
func (p *Pinned) Frame(i int) *Frame { return p.frames[i].Frame() }

// Frames returns the handle's frame references (one per pinned page). The
// slice is owned by the handle; callers must not modify it. The references
// resolve while the handle is active and never once Unpin has released
// their frames.
func (p *Pinned) Frames() []FrameRef { return p.frames }

// Unpin drops all pin references. Frames whose mappings are already gone
// are freed here (the put_page of the last reference).
func (p *Pinned) Unpin() error {
	if !p.active {
		return ErrDoubleUnpin
	}
	p.unpinFrom(0)
	p.frames, p.active = nil, false
	return nil
}

// unpinFrom drops the pin references of the handle's pages from on and
// truncates the handle to its first from pages. The pins live on the
// frames, not the page tables, so this walks only the handle's references.
func (p *Pinned) unpinFrom(from int) {
	for _, r := range p.frames[from:] {
		f := r.Frame()
		f.pinRefs--
		if f.pinRefs < 0 {
			panic(fmt.Sprintf("vm: negative pin count on frame %d", f.pfn))
		}
		if f.mapRefs == 0 && f.pinRefs == 0 {
			p.as.phys.release(f)
		}
	}
	p.frames = p.frames[:from]
}

// ReadAt copies length bytes starting at byte offset off within the pinned
// range into dst, going through the stable frame translations (this is what
// device/bottom-half code does: physical access, no page-table walk).
func (p *Pinned) ReadAt(off int, dst []byte) error {
	return p.access(off, len(dst), func(f *Frame, fo int, n int, done int) {
		f.Read(fo, dst[done:done+n])
	})
}

// WriteAt copies src into the pinned range at byte offset off.
func (p *Pinned) WriteAt(off int, src []byte) error {
	return p.access(off, len(src), func(f *Frame, fo int, n int, done int) {
		f.Write(fo, src[done:done+n])
	})
}

func (p *Pinned) access(off, length int, fn func(f *Frame, frameOff, n, done int)) error {
	if !p.active {
		return fmt.Errorf("vm: access through inactive pin handle: %w", ErrDoubleUnpin)
	}
	if off < 0 || off+length > len(p.frames)*PageSize {
		return fmt.Errorf("vm: pinned access [%d,%d) outside %d pages: %w",
			off, off+length, len(p.frames), ErrBadAddress)
	}
	done := 0
	for done < length {
		idx := (off + done) >> PageShift
		fo := (off + done) & (PageSize - 1)
		n := PageSize - fo
		if n > length-done {
			n = length - done
		}
		fn(p.frames[idx].Frame(), fo, n, done)
		done += n
	}
	return nil
}
