package vm

import (
	"bytes"
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

// TestFrameReuseHogSweepAllocFree: once the pages exist, a hog sweep that
// faults every page back in from swap allocates nothing. Each fault takes
// a released frame off the free list instead of making one, and the page
// contents move by reference between frame and swap slot (and, through
// WriteBuf, from the shared dirt page).
func TestFrameReuseHogSweepAllocFree(t *testing.T) {
	pattern := hogPattern()
	dirt := PageBuf(pattern)
	defer dirt.Release()
	for _, hw := range hogWrites(pattern, &dirt) {
		t.Run(hw.name, func(t *testing.T) {
			as, arena := newHogArena(t)
			sweep := func() {
				for p := 0; p < hogPages; p++ {
					if err := hw.write(as, arena+Addr(p)<<PageShift); err != nil {
						t.Fatal(err)
					}
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
// adopts a shared PageBuf by reference.
func BenchmarkReclaimFault(b *testing.B) {
	pattern := hogPattern()
	dirt := PageBuf(pattern)
	defer dirt.Release()
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
}
