package vm

import (
	"bytes"
	"slices"
	"testing"
)

// The hog rig: a churn buffer twice a bounded node's frame budget, written
// a page at a time as the kv and pressure-workload hogs sweep theirs.
// Once every page has been written, each write swaps its page back in and
// direct reclaim steals others to make room.
const (
	hogFrames = 64
	hogPages  = 2 * hogFrames
)

// hogPattern is the hogs' dirt page.
func hogPattern() []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = byte(i + 1)
	}
	return p
}

func newHogArena(tb testing.TB) (*AddressSpace, Addr) {
	tb.Helper()
	as := NewAddressSpace(1, NewPhysMem(hogFrames))
	arena, err := as.Mmap(hogPages * PageSize)
	if err != nil {
		tb.Fatal(err)
	}
	return as, arena
}

// hogWrite is one way a hog writes a page.
type hogWrite struct {
	name  string
	write func(as *AddressSpace, a Addr) error
}

// hogWrites are the two ways: copying the pattern, or adopting a one-page
// PageBuf of it by reference.
func hogWrites(pattern []byte, dirt *Buf) []hogWrite {
	return []hogWrite{
		{"Write", func(as *AddressSpace, a Addr) error { return as.Write(a, pattern) }},
		{"WriteBuf", func(as *AddressSpace, a Addr) error {
			w := NewBufWriter(dirt)
			return as.WriteBuf(a, &w, PageSize)
		}},
	}
}

// sweepOnce writes the whole arena in one WriteBuf of rep, a RepeatPage
// Buf of the pattern, as the hogs sweep.
func sweepOnce(as *AddressSpace, arena Addr, rep *Buf) error {
	w := NewBufWriter(rep)
	return as.WriteBuf(arena, &w, hogPages*PageSize)
}

// TestFrameReuseHogSweepAllocFree: once the pages exist, a hog sweep that
// faults every page back in from swap allocates nothing, whether it writes
// a page at a time or the whole arena in one call. Each fault takes a
// released frame off the free list instead of making one, and the page
// contents move by reference between frame and swap slot (and, through
// WriteBuf, from the shared dirt page).
func TestFrameReuseHogSweepAllocFree(t *testing.T) {
	pattern := hogPattern()
	dirt, rep := PageBuf(pattern), RepeatPage(pattern, hogPages)
	defer dirt.Release()
	defer rep.Release()
	type hogSweep struct {
		name  string
		sweep func(as *AddressSpace, arena Addr) error
	}
	var sweeps []hogSweep
	for _, hw := range hogWrites(pattern, &dirt) {
		sweeps = append(sweeps, hogSweep{hw.name, func(as *AddressSpace, arena Addr) error {
			for p := 0; p < hogPages; p++ {
				if err := hw.write(as, arena+Addr(p)<<PageShift); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	sweeps = append(sweeps, hogSweep{"Sweep", func(as *AddressSpace, arena Addr) error {
		return sweepOnce(as, arena, &rep)
	}})
	for _, hs := range sweeps {
		t.Run(hs.name, func(t *testing.T) {
			as, arena := newHogArena(t)
			sweep := func() {
				if err := hs.sweep(as, arena); err != nil {
					t.Fatal(err)
				}
			}
			sweep() // makes the pages, the leaf and the free list's room
			swapIns := as.SwapIns()
			const runs = 4
			if n := testing.AllocsPerRun(runs, sweep); n != 0 {
				t.Fatalf("a steady-state sweep allocated %v objects, want 0", n)
			}
			// AllocsPerRun sweeps once more than runs.
			if got := as.SwapIns() - swapIns; got != (runs+1)*hogPages {
				t.Fatalf("%d swap-ins over %d sweeps, want every write to fault", got, runs+1)
			}
			got := make([]byte, PageSize)
			for p := 0; p < hogPages; p += hogPages / 4 {
				if err := as.Read(arena+Addr(p)<<PageShift, got); err != nil || !bytes.Equal(got, pattern) {
					t.Fatalf("page %d lost the hog's pattern (err %v)", p, err)
				}
			}
		})
	}
}

// notifierLog records every MMU-notifier call, in order.
type notifierLog []NotifierRange

func (l *notifierLog) InvalidateRange(r NotifierRange) { *l = append(*l, r) }

// TestHogSweepOneCallMatchesPerPage: a churn sweep written as one WriteBuf
// of a RepeatPage Buf over the whole arena is the program the per-page
// loop it replaced ran. Two identical bounded rigs, each holding a pinned
// range that the scans must resist, sweep an arena that ends 1,808 bytes
// into its last page several times, with a kswapd pass between sweeps
// (its watermarks raised so that each pass steals): one a page at a time
// through a one-page PageBuf, one in a single call. Reclaim counters,
// faults and swap-ins, every notifier call, and the final state of every
// page (where it lives, which frame, and whether it holds the dirt page by
// reference or its own bytes) must match, and the single call must write
// nothing past the arena's last byte.
func TestHogSweepOneCallMatchesPerPage(t *testing.T) {
	const (
		pinnedPages = 8
		churnBytes  = hogPages*PageSize - 1808
		sweeps      = 4
	)
	pattern := hogPattern()
	type rig struct {
		as          *AddressSpace
		arena, tail Addr // tail is a canary page behind the arena
		log         notifierLog
	}
	newRig := func() *rig {
		r := &rig{as: NewAddressSpace(1, NewPhysMem(hogFrames))}
		r.as.Phys().SetWatermarks(hogFrames/2, 3*hogFrames/4)
		r.as.RegisterNotifier(&r.log)
		pinned, _ := r.as.Mmap(pinnedPages * PageSize)
		r.as.Write(pinned, bytes.Repeat([]byte{0x3C}, pinnedPages*PageSize))
		if _, err := r.as.Pin(pinned, pinnedPages*PageSize); err != nil {
			t.Fatal(err)
		}
		// The arena and the canary page share one mapping, so a write past
		// churnBytes would land on the canary instead of faulting.
		r.arena, _ = r.as.Mmap(churnBytes + PageSize)
		r.tail = PageAlignUp(r.arena + churnBytes)
		r.as.Write(r.tail, []byte{0xC5})
		return r
	}
	perPage, oneCall := newRig(), newRig()
	dirt := PageBuf(pattern)
	defer dirt.Release()
	rep := RepeatPage(pattern, PageCount(0, churnBytes))
	defer rep.Release()
	for s := 0; s < sweeps; s++ {
		for off := 0; off < churnBytes; off += PageSize {
			w := NewBufWriter(&dirt)
			if err := perPage.as.WriteBuf(perPage.arena+Addr(off), &w, min(PageSize, churnBytes-off)); err != nil {
				t.Fatal(err)
			}
		}
		w := NewBufWriter(&rep)
		if err := oneCall.as.WriteBuf(oneCall.arena, &w, churnBytes); err != nil {
			t.Fatal(err)
		}
		perPage.as.Phys().KswapdPass()
		oneCall.as.Phys().KswapdPass()
	}
	if a, b := perPage.as.Phys().ReclaimStats(), oneCall.as.Phys().ReclaimStats(); a != b {
		t.Fatalf("reclaim stats differ:\nper page %+v\none call %+v", a, b)
	}
	if a := perPage.as.Phys().ReclaimStats(); a.DirectSteals == 0 || a.KswapdSteals == 0 || a.PinnedResists == 0 {
		t.Fatalf("the rig missed direct reclaim, kswapd or a pinned frame: %+v", a)
	}
	if perPage.as.Faults() != oneCall.as.Faults() || perPage.as.SwapIns() != oneCall.as.SwapIns() {
		t.Fatalf("faults %d/%d, swap-ins %d/%d (per page / one call)",
			perPage.as.Faults(), oneCall.as.Faults(), perPage.as.SwapIns(), oneCall.as.SwapIns())
	}
	if !slices.Equal(perPage.log, oneCall.log) {
		t.Fatalf("notifier calls differ: %d per page, %d in one call", len(perPage.log), len(oneCall.log))
	}
	// pageState is what a page's PTE holds, with the rig's own dirt page
	// and frame numbers made comparable across the rigs.
	type pageState struct {
		present, swapped, dirt bool
		pfn                    uint64
		data                   string // the page's bytes when it is not the dirt page
	}
	states := func(r *rig, dirtPage *page) []pageState {
		var out []pageState
		for _, v := range r.as.vmas {
			r.as.forEachPTE(v.start, v.end, func(p *pte) {
				st := pageState{present: p.present, swapped: p.swapped}
				pg := p.swapPg
				if p.present {
					st.pfn, pg = p.frame.pfn, p.frame.pg
				}
				if st.dirt = pg == dirtPage; !st.dirt && pg != nil {
					data := make([]byte, PageSize)
					pg.read(0, data)
					st.data = string(data)
				}
				out = append(out, st)
			})
		}
		return out
	}
	a, b := states(perPage, dirt.chunks[0].pg), states(oneCall, rep.chunks[0].pg)
	if !slices.Equal(a, b) {
		t.Fatal("the final page states differ")
	}
	// Besides the Bufs themselves, the same number of frames and swap
	// slots hold each rig's dirt page.
	if x, y := dirt.chunks[0].pg.refs.Load()-1, rep.chunks[0].pg.refs.Load()-int32(len(rep.chunks)); x != y {
		t.Fatalf("the dirt page has %d holders per page, %d in one call", x, y)
	}
	got := make([]byte, 2)
	if err := oneCall.as.Read(oneCall.tail-1, got); err != nil || got[1] != 0xC5 || got[0] != 0 {
		t.Fatalf("the bytes around the arena's end read %x (err %v), want 00c5", got, err)
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s resolved without a panic", what)
		}
	}()
	fn()
}

// TestFrameReuseStaleRef: a reference taken before its frame is released
// does not resolve once the frame is freed, nor once the same Frame object
// backs a new page.
func TestFrameReuseStaleRef(t *testing.T) {
	as := NewAddressSpace(1, NewPhysMem(0))
	a, _ := as.Mmap(PageSize)
	as.Write(a, []byte("old"))
	f, _ := as.FrameAt(a)
	ref := f.ref()
	if ref.Frame() != f {
		t.Fatal("a fresh reference does not resolve to its frame")
	}
	as.Munmap(a, PageSize)
	mustPanic(t, "a reference to a freed frame", func() { ref.Frame() })
	b, _ := as.Mmap(PageSize)
	as.Write(b, []byte("new"))
	g, _ := as.FrameAt(b)
	if g != f {
		t.Fatal("the new page did not reuse the released frame")
	}
	mustPanic(t, "a reference to a reused frame", func() { ref.Frame() })
	if g.ref().Frame() != g {
		t.Fatal("a reference to the reused frame does not resolve")
	}
}

// TestFrameReuseStalePin: a pin handle's references resolve while it is
// active, even after the mapping is gone, and never once Unpin has
// released the frames and new pages have reused them.
func TestFrameReuseStalePin(t *testing.T) {
	const pages = 2
	as := NewAddressSpace(1, NewPhysMem(0))
	a, _ := as.Mmap(pages * PageSize)
	as.Write(a, bytes.Repeat([]byte{0x11}, pages*PageSize))
	p, err := as.Pin(a, pages*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	refs := p.Frames()
	as.Munmap(a, pages*PageSize) // the pin keeps both frames
	pinned := make(map[*Frame]bool)
	for i, r := range refs {
		pinned[r.Frame()] = true
		if p.Frame(i) != r.Frame() {
			t.Fatalf("Frame(%d) disagrees with its reference", i)
		}
	}
	p.Unpin()
	b, _ := as.Mmap(pages * PageSize)
	as.Write(b, bytes.Repeat([]byte{0x22}, pages*PageSize))
	for i := 0; i < pages; i++ {
		if f, _ := as.FrameAt(b + Addr(i)<<PageShift); !pinned[f] {
			t.Fatalf("page %d did not reuse a frame the unpin released", i)
		}
	}
	for _, r := range refs {
		mustPanic(t, "an unpinned handle's reference", func() { r.Frame() })
	}
}

// BenchmarkReclaimFault times one steady-state hog page write: a fault
// that swaps the page back in and, every directReclaimBatch writes, a
// direct-reclaim stall that steals a batch. Write copies the page; WriteBuf
// adopts a shared PageBuf by reference. Sweep times a whole-arena sweep in
// one WriteBuf of a RepeatPage Buf, as the hogs write, and reports its
// cost per page beside the per-page cells'.
func BenchmarkReclaimFault(b *testing.B) {
	pattern := hogPattern()
	dirt, rep := PageBuf(pattern), RepeatPage(pattern, hogPages)
	defer dirt.Release()
	defer rep.Release()
	for _, hw := range hogWrites(pattern, &dirt) {
		b.Run(hw.name, func(b *testing.B) {
			as, arena := newHogArena(b)
			for p := 0; p < hogPages; p++ {
				if err := hw.write(as, arena+Addr(p)<<PageShift); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			p := 0
			for b.Loop() {
				if err := hw.write(as, arena+Addr(p)<<PageShift); err != nil {
					b.Fatal(err)
				}
				p = (p + 1) % hogPages
			}
		})
	}
	b.Run("Sweep", func(b *testing.B) {
		as, arena := newHogArena(b)
		if err := sweepOnce(as, arena, &rep); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if err := sweepOnce(as, arena, &rep); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hogPages), "ns/page")
	})
}
