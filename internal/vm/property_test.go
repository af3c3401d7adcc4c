package vm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropPinCountsBalance drives a random sequence of pin/unpin operations
// and verifies the core accounting invariant: after releasing every handle,
// no frame carries a pin reference and frame counts return to the mapped
// baseline.
func TestPropPinCountsBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys := NewPhysMem(0)
		as := NewAddressSpace(1, phys)
		const pages = 32
		addr, _ := as.Mmap(pages * PageSize)
		var handles []*Pinned
		for op := 0; op < 100; op++ {
			if rng.Intn(2) == 0 || len(handles) == 0 {
				first := rng.Intn(pages)
				count := 1 + rng.Intn(pages-first)
				h, err := as.PinPages(addr, first, count)
				if err != nil {
					return false
				}
				handles = append(handles, h)
			} else {
				i := rng.Intn(len(handles))
				handles[i].Unpin()
				handles = append(handles[:i], handles[i+1:]...)
			}
		}
		for _, h := range handles {
			if h.Unpin() != nil {
				return false
			}
		}
		for a := addr; a < addr+pages*PageSize; a += PageSize {
			if f, ok := as.FrameAt(a); ok && f.PinCount() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropPinnedFramesStableUnderVMPressure checks the paper's fundamental
// pinning guarantee: whatever mix of migration and swap pressure the OS
// applies, the frames under an active pin handle never change and their data
// stays intact.
func TestPropPinnedFramesStableUnderVMPressure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace(1, NewPhysMem(0))
		const pages = 16
		addr, _ := as.Mmap(pages * PageSize)
		payload := make([]byte, pages*PageSize)
		rng.Read(payload)
		as.Write(addr, payload)

		first := rng.Intn(pages)
		count := 1 + rng.Intn(pages-first)
		pin, err := as.PinPages(addr, first, count)
		if err != nil {
			return false
		}
		before := make([]*Frame, count)
		for i := 0; i < count; i++ {
			before[i] = pin.Frame(i)
		}
		for i := 0; i < 20; i++ {
			switch rng.Intn(2) {
			case 0:
				as.Migrate(addr, pages*PageSize)
			case 1:
				as.SwapOut(addr, pages*PageSize)
				// Touch a random page to force swap-ins interleaved with pins.
				a := addr + Addr(rng.Intn(pages))<<PageShift
				as.Read(a, make([]byte, 8))
			}
		}
		for i := 0; i < count; i++ {
			if pin.Frame(i) != before[i] {
				return false
			}
		}
		got := make([]byte, count*PageSize)
		if pin.ReadAt(0, got) != nil {
			return false
		}
		want := payload[first*PageSize : (first+count)*PageSize]
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		pin.Unpin()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropMallocFreeNoLeaks runs random malloc/free sequences and verifies
// that all frames are reclaimed once everything is freed and unmapped
// regions reject access.
func TestPropMallocFreeNoLeaks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys := NewPhysMem(0)
		as := NewAddressSpace(1, phys)
		al, err := NewAllocator(as, 0, 1<<20)
		if err != nil {
			return false
		}
		type alloc struct {
			addr Addr
			size int
		}
		var live []alloc
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				var size int
				if rng.Intn(3) == 0 {
					size = MmapThreshold + rng.Intn(1<<20)
				} else {
					size = 1 + rng.Intn(8192)
				}
				a, err := al.Malloc(size)
				if err != nil {
					continue // arena may fill up; that's fine
				}
				// Touch the first and last byte so frames materialize.
				if as.Write(a, []byte{1}) != nil {
					return false
				}
				if as.Write(a+Addr(size-1), []byte{2}) != nil {
					return false
				}
				live = append(live, alloc{a, size})
			} else {
				i := rng.Intn(len(live))
				if al.Free(live[i].addr) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, a := range live {
			if al.Free(a.addr) != nil {
				return false
			}
		}
		// Only arena frames may remain (the arena itself stays mapped).
		return phys.FramesInUse() <= (1<<20)/PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropWriteReadRoundTrip: arbitrary writes at arbitrary offsets read
// back exactly, across page boundaries.
func TestPropWriteReadRoundTrip(t *testing.T) {
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		as := NewAddressSpace(1, NewPhysMem(0))
		size := int(off) + len(data) + PageSize
		addr, err := as.Mmap(size)
		if err != nil {
			return false
		}
		if as.Write(addr+Addr(off), data) != nil {
			return false
		}
		got := make([]byte, len(data))
		if as.Read(addr+Addr(off), got) != nil {
			return false
		}
		for i := range got {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropMunmapAlwaysNotifiesWholeRange: for random mapped layouts, every
// munmap fires exactly one unmap notification covering the range, before
// the pages disappear.
func TestPropMunmapAlwaysNotifiesWholeRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace(1, NewPhysMem(0))
		rec := &recordingNotifier{}
		as.RegisterNotifier(rec)
		var addrs []Addr
		var sizes []int
		for i := 0; i < 5; i++ {
			size := PageSize * (1 + rng.Intn(8))
			a, err := as.Mmap(size)
			if err != nil {
				return false
			}
			addrs = append(addrs, a)
			sizes = append(sizes, size)
		}
		for i := range addrs {
			n := len(rec.ranges)
			if as.Munmap(addrs[i], sizes[i]) != nil {
				return false
			}
			if len(rec.ranges) != n+1 {
				return false
			}
			nr := rec.ranges[n]
			if nr.Start != addrs[i] || nr.End != addrs[i]+Addr(sizes[i]) || nr.Reason != InvalidateUnmap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPageRefs drives write / lend / release / fork / COW / swap /
// migrate / pin / extend / munmap / re-mmap sequences on unbounded memory,
// eight bytes an op, and checks after every operation that each page's
// reference count equals its holders, that each frame's pin count equals
// the pin references held to it, and that no pooled page is held; Bufs
// must read the snapshot they were lent and live mappings must match a
// sparse model. Writes also go through WriteBuf from a PageBuf (adopted
// whole pages, or an unaligned range) that stays out as a loan, and lends
// also go through ReadBuf. A shifted copy reads a range of one mapping
// through ReadBuf and writes it through WriteBuf into another at a
// different in-page offset, as a receive commit does, once or twice in a
// row, so that its partial pages are spliced from the source's pages, and
// the second copy finds its pieces already there; the copied range must
// then read back as the source's bytes, and keep them until it is written
// again, through source rewrites, forks, swaps, loans and unmaps. Each
// piece counts as a holder of its source page. Three mappings fit in one
// page-table leaf; the fourth spans more than three, and ops address it at
// random pages. A partial munmap cuts a hole inside a mapping, splitting
// its VMA (usually inside a leaf), and maps the hole again; leaves a munmap
// frees are reused. Released frames are reused, so after every op each
// active pin's references must resolve and no reference taken before its
// frame's release may. At teardown every page buffer ever made is
// accounted for with no holder left.
func FuzzPageRefs(f *testing.F) {
	mapPages := [...]int{4, 4, 4, 3*leafPages + 5}
	const maxOps = 200
	f.Fuzz(func(t *testing.T, ops []byte) {
		pm := NewPhysMem(0)
		as := NewAddressSpace(1, pm)
		l := newPageLedger(pm)
		type loan struct {
			b    *Buf
			want []byte
		}
		addrs := make([]Addr, len(mapPages))
		// models[i] holds mapping i's written pages; absent pages read
		// as zeros.
		models := make([]map[int][]byte, len(mapPages))
		for i, n := range mapPages {
			addrs[i], _ = as.Mmap(n * PageSize)
			models[i] = make(map[int][]byte)
		}
		modelWrite := func(mi, off int, data []byte) {
			for len(data) > 0 {
				pg := models[mi][off/PageSize]
				if pg == nil {
					pg = make([]byte, PageSize)
					models[mi][off/PageSize] = pg
				}
				n := copy(pg[off%PageSize:], data)
				data, off = data[n:], off+n
			}
		}
		modelRead := func(mi, off, n int) []byte {
			out := make([]byte, n)
			for done := 0; done < n; {
				o := (off + done) % PageSize
				m := min(PageSize-o, n-done)
				if pg := models[mi][(off+done)/PageSize]; pg != nil {
					copy(out[done:done+m], pg[o:o+m])
				}
				done += m
			}
			return out
		}
		var loans []loan
		var children []*AddressSpace
		var pins []*Pinned
		// dead holds the newest references whose frames an op released,
		// at most 128 so that checking them after every op stays cheap.
		var dead []FrameRef
		retire := func(refs []FrameRef) {
			for _, r := range refs {
				if r.f.freed {
					dead = append(dead, r)
				}
			}
			dead = dead[max(0, len(dead)-128):]
		}
		// resident takes references to the frames of pages [first,
		// first+n) of mapping mi.
		resident := func(mi, first, n int) []FrameRef {
			var refs []FrameRef
			for p := first; p < first+n; p++ {
				if f, ok := as.FrameAt(addrs[mi] + Addr(p)<<PageShift); ok {
					refs = append(refs, f.ref())
				}
			}
			return refs
		}
		release := func(i int) {
			ln := loans[i]
			if !bytes.Equal(ln.b.Bytes(), ln.want) {
				t.Fatal("lent Buf lost its snapshot")
			}
			l.release(ln.b)
			loans = append(loans[:i], loans[i+1:]...)
		}
		dropChild := func(i int) {
			c := children[i]
			for _, v := range append([]*vma(nil), c.vmas...) {
				c.Munmap(v.start, int(v.end-v.start))
			}
			children = append(children[:i], children[i+1:]...)
		}
		for step := 0; step+8 <= len(ops) && step < 8*maxOps; step += 8 {
			op := ops[step : step+8]
			mi := int(op[1]) % len(mapPages)
			pages := mapPages[mi]
			a := int(binary.LittleEndian.Uint16(op[2:]))
			b := int(binary.LittleEndian.Uint16(op[4:]))
			c := int(binary.LittleEndian.Uint16(op[6:]))
			// Most ops act on a window of up to four pages at page first.
			first := a % pages
			base := first * PageSize
			window := min(4, pages-first) * PageSize
			switch op[0] % 14 {
			case 0, 1: // write: the whole window (adopt-sized) or a partial range
				off, n := base, window
				if b&1 != 0 {
					off += b % (window - 1)
					n = 1 + c%(base+window-off)
				}
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(c) * byte(i*31+1+i>>8) // c == 0 writes zeros
				}
				as.Write(addrs[mi]+Addr(off), data)
				modelWrite(mi, off, data)
			case 2: // lend a resident range
				off := base + b%(window-1)
				n := 1 + c%(base+window-off)
				if lb, ok := l.lend(as, addrs[mi]+Addr(off), n); ok {
					loans = append(loans, loan{lb, modelRead(mi, off, n)})
				}
			case 3: // release a loan
				if len(loans) > 0 {
					release(b % len(loans))
				}
			case 4: // fork; the child writes a byte (COW break on its side)
				if len(children) >= 2 {
					dropChild(0)
				}
				child, err := as.Fork(10 + step)
				if err != nil {
					t.Fatalf("fork: %v", err)
				}
				child.Write(addrs[mi]+Addr(base+b%PageSize), []byte{0x5A})
				children = append(children, child)
			case 5: // swap out the window or the mapping, then maybe touch a page back in
				if b&1 == 0 {
					as.SwapOut(addrs[mi]+Addr(base), window)
				} else {
					as.SwapOut(addrs[mi], pages*PageSize)
				}
				if c&1 == 0 {
					as.Read(addrs[mi]+Addr(base+c%window), make([]byte, 1))
				}
			case 6: // migrate the window or the mapping
				if b&1 == 0 {
					as.Migrate(addrs[mi]+Addr(base), window)
				} else {
					as.Migrate(addrs[mi], pages*PageSize)
				}
			case 7: // pin a page, extend a pin or unpin: pinned frames survive munmap
				switch {
				case len(pins) > 0 && b&1 == 0:
					refs := pins[0].Frames()
					pins[0].Unpin()
					retire(refs)
					pins = pins[1:]
				case len(pins) > 0 && c&1 != 0:
					// Past the pin's mapping lies a guard page, and past a
					// freed mapping nothing: an extend that reaches either
					// fails and unpins only the pages it pinned itself.
					h := pins[len(pins)-1]
					n := h.NumPages()
					if err := h.Extend(1 + c>>1%4); err != nil && h.NumPages() != n {
						t.Fatalf("op %d: a failed extend kept %d of its pages", step/8, h.NumPages()-n)
					}
				default:
					if h, err := as.PinPages(addrs[mi], first, 1); err == nil {
						pins = append(pins, h)
					}
				}
			case 8: // free and re-malloc: freed frames and pages are recycled
				refs := resident(mi, 0, pages)
				as.Munmap(addrs[mi], pages*PageSize)
				retire(refs)
				addrs[mi], _ = as.Mmap(pages * PageSize)
				models[mi] = make(map[int][]byte)
			case 9: // read the window back through the live page tables
				got := make([]byte, window)
				as.Read(addrs[mi]+Addr(base), got)
				if want := modelRead(mi, base, window); !bytes.Equal(got, want) {
					t.Fatalf("op %d: mapping %d pages [%d,%d) diverged from model", step/8, mi, first, first+window/PageSize)
				}
			case 10: // cut a hole strictly inside the mapping, then map it again
				hole := 1 + a%(pages-2)
				n := 1 + b%min(4, pages-1-hole)
				at := addrs[mi] + Addr(hole)<<PageShift
				refs := resident(mi, hole, n)
				if err := as.Munmap(at, n*PageSize); err != nil {
					t.Fatalf("op %d: partial munmap: %v", step/8, err)
				}
				retire(refs)
				if err := as.MmapFixed(at, n*PageSize); err != nil {
					t.Fatalf("op %d: remap: %v", step/8, err)
				}
				for p := hole; p < hole+n; p++ {
					delete(models[mi], p)
				}
			case 11: // write a PageBuf through WriteBuf (whole pages are adopted); it stays out as a loan
				off, n := base, window
				if b&1 != 0 {
					off += b % (window - 1)
					n = 1 + c%(base+window-off)
				}
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(c) ^ byte(i*7+3)
				}
				pb := PageBuf(data)
				l.own(&pb)
				w := NewBufWriter(&pb)
				if err := as.WriteBuf(addrs[mi]+Addr(off), &w, n); err != nil {
					t.Fatalf("op %d: WriteBuf: %v", step/8, err)
				}
				modelWrite(mi, off, data)
				loans = append(loans, loan{&pb, data})
			case 12: // lend a range through ReadBuf, faulting absent pages in
				off := base + b%(window-1)
				n := 1 + c%(base+window-off)
				lb := &Buf{}
				if err := as.ReadBuf(addrs[mi]+Addr(off), n, lb); err != nil {
					t.Fatalf("op %d: ReadBuf: %v", step/8, err)
				}
				l.register(lb)
				loans = append(loans, loan{lb, modelRead(mi, off, n)})
			case 13: // shifted copy into another mapping; op[1] bit 4 copies twice, bit 5 keeps each Buf as a loan
				mj := (mi + 1 + int(op[1]>>2&3)%3) % len(mapPages)
				so := base + b%PageSize
				n := min(1+(b>>12<<4|c>>12)*48, pages*PageSize-so)
				do := first%(mapPages[mj]-3)*PageSize + c%PageSize
				want := modelRead(mi, so, n)
				for range 1 + int(op[1]>>4&1) {
					lb := &Buf{}
					if err := as.ReadBuf(addrs[mi]+Addr(so), n, lb); err != nil {
						t.Fatalf("op %d: ReadBuf: %v", step/8, err)
					}
					l.register(lb)
					w := NewBufWriter(lb)
					if err := as.WriteBuf(addrs[mj]+Addr(do), &w, n); err != nil {
						t.Fatalf("op %d: WriteBuf: %v", step/8, err)
					}
					if op[1]&0x20 != 0 {
						loans = append(loans, loan{lb, want})
					} else {
						l.release(lb)
					}
				}
				modelWrite(mj, do, want)
				got := make([]byte, n)
				as.Read(addrs[mj]+Addr(do), got)
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d: %d bytes copied from mapping %d at %d to mapping %d at %d read back wrong",
						step/8, n, mi, so, mj, do)
				}
			}
			for _, h := range pins {
				for i, r := range h.Frames() {
					if !r.live() {
						t.Fatalf("op %d: page %d of an active pin no longer resolves", step/8, i)
					}
				}
			}
			for _, r := range dead {
				if r.live() {
					t.Fatalf("op %d: a reference to released frame %d resolves", step/8, r.f.pfn)
				}
			}
			if err := l.check(append([]*AddressSpace{as}, children...), pins); err != nil {
				t.Fatalf("op %d: %v", step/8, err)
			}
		}
		for len(loans) > 0 {
			release(0)
		}
		for _, h := range pins {
			h.Unpin()
		}
		for len(children) > 0 {
			dropChild(0)
		}
		for i, a := range addrs {
			as.Munmap(a, mapPages[i]*PageSize)
		}
		if pm.FramesInUse() != 0 || pm.SwappedPages() != 0 {
			t.Fatalf("teardown left frames=%d swapped=%d", pm.FramesInUse(), pm.SwappedPages())
		}
		if err := l.checkTornDown(); err != nil {
			t.Fatal(err)
		}
	})
}
