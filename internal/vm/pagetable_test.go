package vm

import (
	"bytes"
	"slices"
	"testing"
)

// arenaBytes is the size of a simulated process's malloc arena.
const arenaBytes = 64 << 20

// leaves counts the distinct page-table leaves of as's mappings.
func leaves(as *AddressSpace) int {
	seen := make(map[*leaf]bool)
	for _, v := range as.vmas {
		for _, l := range v.dir {
			if l != nil {
				seen[l] = true
			}
		}
	}
	return len(seen)
}

// TestPageTableLeafPerTouch: mapping 64 MiB allocates no leaf, and
// writing one page allocates exactly the one holding it.
func TestPageTableLeafPerTouch(t *testing.T) {
	as := newAS(t)
	a, err := as.Mmap(arenaBytes)
	if err != nil {
		t.Fatal(err)
	}
	if n := leaves(as); n != 0 {
		t.Fatalf("fresh mapping has %d leaves, want 0", n)
	}
	if err := as.Write(a+1000*PageSize, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if n := leaves(as); n != 1 {
		t.Fatalf("one written page: %d leaves, want 1", n)
	}
}

// TestPageTableUntouchedCostsNothing: reads and range operations over
// memory nothing has touched allocate no leaf, and the residency reads
// allocate nothing at all.
func TestPageTableUntouchedCostsNothing(t *testing.T) {
	as := newAS(t)
	a, _ := as.Mmap(arenaBytes)
	mid := a + arenaBytes/2 + 3*PageSize
	if allocs := testing.AllocsPerRun(100, func() {
		if as.PageResident(mid) {
			t.Fatal("untouched page resident")
		}
		if _, ok := as.FrameAt(mid); ok {
			t.Fatal("untouched page has a frame")
		}
	}); allocs != 0 {
		t.Errorf("PageResident and FrameAt allocated %v times per run, want 0", allocs)
	}
	// MissingPages allocates only its result: every page is missing.
	const count = 3 * leafPages
	if m := as.MissingPages(mid, count); len(m) != count {
		t.Errorf("MissingPages reported %d of %d untouched pages", len(m), count)
	}
	if err := as.MProtect(a, arenaBytes, false); err != nil {
		t.Fatal(err)
	}
	if err := as.MarkCOW(a, arenaBytes); err != nil {
		t.Fatal(err)
	}
	if n, err := as.SwapOut(a, arenaBytes); n != 0 || err != nil {
		t.Fatalf("SwapOut = %d, %v", n, err)
	}
	if n, err := as.Migrate(a, arenaBytes); n != 0 || err != nil {
		t.Fatalf("Migrate = %d, %v", n, err)
	}
	if err := as.Munmap(a, arenaBytes/2); err != nil {
		t.Fatal(err)
	}
	if n := leaves(as); n != 0 {
		t.Fatalf("walks over untouched memory left %d leaves, want 0", n)
	}

	// A resident range: MissingPages finds nothing and allocates nothing.
	b, _ := as.Mmap(count * PageSize)
	as.Write(b, make([]byte, count*PageSize))
	if allocs := testing.AllocsPerRun(100, func() {
		if m := as.MissingPages(b, count); m != nil {
			t.Fatalf("resident range reports missing pages %v", m)
		}
	}); allocs != 0 {
		t.Errorf("MissingPages over resident pages allocated %v times per run, want 0", allocs)
	}
}

// TestPageTableSplitKeepsPages: a partial munmap that splits a VMA
// inside a leaf, and one that splits it across a leaf boundary, leave
// every surviving page with its PTE (outstanding pointers stay valid),
// frame, pin count and bytes; pins taken across each cut still unpin
// cleanly.
func TestPageTableSplitKeepsPages(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, cuts int // the unmapped pages
	}{
		{"inside a leaf", 100, 10},
		{"across a leaf boundary", leafPages - 6, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pages = 2*leafPages + 40
			pm := NewPhysMem(0)
			as := NewAddressSpace(1, pm)
			a, _ := as.Mmap(pages * PageSize)
			content := func(i int) []byte { return []byte{byte(i), byte(i >> 8), 0xA5} }
			for i := 0; i < pages; i++ {
				as.Write(a+Addr(i)<<PageShift, content(i))
			}
			// Pins straddle both edges of the cut.
			lo, _ := as.PinPages(a, tc.first-2, 4)
			hi, _ := as.PinPages(a, tc.first+tc.cuts-2, 4)
			type state struct {
				p       *pte
				f       *Frame
				pinRefs int
			}
			before := make([]state, pages)
			for i := range before {
				p := as.lookup(a + Addr(i)<<PageShift)
				before[i] = state{p, p.frame, p.frame.PinCount()}
			}
			if err := as.Munmap(a+Addr(tc.first)<<PageShift, tc.cuts*PageSize); err != nil {
				t.Fatal(err)
			}
			if len(as.vmas) != 2 {
				t.Fatalf("split left %d vmas, want 2", len(as.vmas))
			}
			for i := 0; i < pages; i++ {
				pa := a + Addr(i)<<PageShift
				if i >= tc.first && i < tc.first+tc.cuts {
					if as.Mapped(pa, 1) {
						t.Fatalf("page %d still mapped", i)
					}
					continue
				}
				p := as.lookup(pa)
				if p != before[i].p || p.frame != before[i].f || p.frame.PinCount() != before[i].pinRefs {
					t.Fatalf("page %d changed across the split", i)
				}
				got := make([]byte, 3)
				as.Read(pa, got)
				if !bytes.Equal(got, content(i)) {
					t.Fatalf("page %d reads %v, want %v", i, got, content(i))
				}
			}
			if err := lo.Unpin(); err != nil {
				t.Fatal(err)
			}
			if err := hi.Unpin(); err != nil {
				t.Fatal(err)
			}
			for _, v := range as.vmas {
				as.forEachPTE(v.start, v.end, func(p *pte) {
					if p.present && p.frame.pinRefs != 0 {
						t.Fatal("a frame kept a pin after every handle unpinned")
					}
				})
			}
			as.Munmap(a, tc.first*PageSize)
			as.Munmap(a+Addr(tc.first+tc.cuts)<<PageShift, (pages-tc.first-tc.cuts)*PageSize)
			if n := pm.FramesInUse(); n != 0 {
				t.Fatalf("%d frames left after teardown", n)
			}
		})
	}
}

// TestPageTableForkCopiesExistingLeaves: the child of a process that
// touched three pages in different leaves of its 64 MiB arena gets
// exactly those three leaves, and the pinned page it copies is reverse
// mapped at its own address.
func TestPageTableForkCopiesExistingLeaves(t *testing.T) {
	as := NewAddressSpace(1, NewPhysMem(64)) // bounded: frames are reverse mapped
	a, _ := as.Mmap(arenaBytes)
	pages := []int{7, 5 * leafPages, 31*leafPages + 100}
	for _, page := range pages {
		as.Write(a+Addr(page)<<PageShift, []byte{1})
	}
	pinned := a + Addr(pages[2])<<PageShift
	if _, err := as.Pin(pinned, 1); err != nil {
		t.Fatal(err)
	}
	child, err := as.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	if n := leaves(child); n != 3 {
		t.Fatalf("child has %d leaves, want 3", n)
	}
	for k, l := range as.vmas[0].dir {
		if (l != nil) != (child.vmas[0].dir[k] != nil) {
			t.Fatalf("leaf %d: parent has %v, child %v", k, l != nil, child.vmas[0].dir[k] != nil)
		}
	}
	if f, ok := child.FrameAt(pinned); !ok || f.owner != child || f.vaddr != pinned {
		t.Fatal("the child's copy of the pinned page is not reverse mapped at its address")
	}
}

// TestMunmapPoolsLeaves: freeing a mapping returns the leaves it held
// alone to the pool, all zero, and mapping and touching the range again
// takes those leaves back instead of allocating new ones. A leaf that
// still holds a page of a surviving mapping stays with it, and the edge
// leaves of a split mapping, which another part may share, are not pooled.
func TestMunmapPoolsLeaves(t *testing.T) {
	as := newAS(t)
	pool := as.phys.pool
	const pages = 3 * leafPages
	touch := func(a Addr) {
		t.Helper()
		for p := 0; p < pages; p += leafPages / 2 {
			if err := as.Write(a+Addr(p)<<PageShift, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, _ := as.Mmap(pages * PageSize)
	touch(a)
	held := slices.Clone(as.vmas[0].dir)
	as.Munmap(a, pages*PageSize)
	if len(pool.leaves) != 3 {
		t.Fatalf("freeing a 3-leaf mapping pooled %d leaves", len(pool.leaves))
	}
	for _, l := range pool.leaves {
		if *l != (leaf{}) {
			t.Fatal("a pooled leaf holds a PTE")
		}
	}
	a, _ = as.Mmap(pages * PageSize)
	touch(a)
	if len(pool.leaves) != 0 {
		t.Fatalf("touching the mapping again left %d leaves in the pool", len(pool.leaves))
	}
	for _, l := range as.vmas[0].dir {
		if l != held[0] && l != held[1] && l != held[2] {
			t.Fatal("the mapping allocated a leaf while the pool had one")
		}
	}
	// A hole inside the first leaf pools nothing; one covering the middle
	// leaf pools it. The parts left are split: unmapping one pools none of
	// its edge leaves.
	as.Munmap(a+5*PageSize, 5*PageSize)
	if len(pool.leaves) != 0 {
		t.Fatalf("a hole inside a leaf pooled %d leaves", len(pool.leaves))
	}
	as.Munmap(a+leafPages*PageSize, leafPages*PageSize)
	if len(pool.leaves) != 1 {
		t.Fatalf("unmapping the middle leaf pooled %d leaves, want 1", len(pool.leaves))
	}
	as.Munmap(a+2*leafPages*PageSize, leafPages*PageSize)
	if len(pool.leaves) != 1 {
		t.Fatalf("unmapping a split part pooled %d more leaves, want none", len(pool.leaves)-1)
	}
	if err := as.Write(a+2*leafPages*PageSize, []byte{1}); err == nil {
		t.Fatal("the unmapped part is still writable")
	}
}
