package vm

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// pageLedger checks page reference counts against the holders a test can
// see. Lent Bufs are registered while alive; the pages of released Bufs are
// remembered, because a Buf that drops a page's last reference leaves it to
// the garbage collector instead of a pool.
type pageLedger struct {
	pm       *PhysMem
	bufs     map[*Buf]bool
	lentPage map[*page]bool
	bufPages int // pages made by PageBuf, outside any PhysMem
}

func newPageLedger(pm *PhysMem) *pageLedger {
	return &pageLedger{pm: pm, bufs: make(map[*Buf]bool), lentPage: make(map[*page]bool)}
}

// lend builds a Buf over [addr, addr+n) of as through the current frames,
// as the sender's pull path does through pinned ones. Non-resident pages
// (not yet faulted, or swapped out) read as zeros in the model only when
// they were never written, so the caller only lends resident ranges.
func (l *pageLedger) lend(as *AddressSpace, addr Addr, n int) (*Buf, bool) {
	b := &Buf{}
	for done := 0; done < n; {
		a := addr + Addr(done)
		f, ok := as.FrameAt(a)
		if !ok {
			b.Release()
			return nil, false
		}
		off := int(a - PageAlignDown(a))
		m := PageSize - off
		if m > n-done {
			m = n - done
		}
		b.AppendFrame(f, off, m)
		done += m
	}
	l.register(b)
	return b, true
}

// register counts a live Buf's page references as holders until it is
// released.
func (l *pageLedger) register(b *Buf) {
	for _, c := range b.chunks {
		if c.pg != nil {
			l.lentPage[c.pg] = true
		}
	}
	l.bufs[b] = true
}

// own registers a PageBuf or RepeatPage Buf: its references count like a
// lent Buf's, and its distinct pages, which no PhysMem made, count in the
// teardown total.
func (l *pageLedger) own(b *Buf) {
	l.register(b)
	pages := make(map[*page]bool)
	for _, c := range b.chunks {
		pages[c.pg] = true
	}
	l.bufPages += len(pages)
}

// release releases a lent Buf.
func (l *pageLedger) release(b *Buf) {
	delete(l.bufs, b)
	b.Release()
}

// check verifies that every reachable page's count equals its holders —
// one per distinct frame (mapped through the given address spaces or kept
// alive by the given pins), one per swap slot, one per live Buf chunk, one
// per piece of a reachable spliced page — that every splice is well formed
// and no Buf holds a spliced page, that pooled pages and headers are held
// by nobody, and that every reachable frame's pin count equals the pin
// references the given pins hold to it.
func (l *pageLedger) check(spaces []*AddressSpace, pins []*Pinned) error {
	holders := make(map[*page]int32)
	frames := make(map[*Frame]bool)
	for _, as := range spaces {
		for _, v := range as.vmas {
			as.forEachPTE(v.start, v.end, func(p *pte) {
				switch {
				case p.present:
					frames[p.frame] = true
				case p.swapped && p.swapPg != nil:
					holders[p.swapPg]++
				}
			})
		}
	}
	pinned := make(map[*Frame]int)
	for _, h := range pins {
		for _, r := range h.Frames() {
			frames[r.Frame()] = true
			pinned[r.f]++
		}
	}
	for f := range frames {
		if f.PinCount() != pinned[f] {
			return fmt.Errorf("frame %d: pin count %d, %d pin references held", f.pfn, f.PinCount(), pinned[f])
		}
		if f.pg != nil {
			holders[f.pg]++
		}
	}
	var spliced []*page
	for pg := range holders {
		if pg.sp != nil {
			spliced = append(spliced, pg)
		}
	}
	for _, pg := range spliced {
		if err := checkSplice(pg); err != nil {
			return err
		}
		for _, pc := range pg.sp.pieces[:pg.sp.n] {
			holders[pc.src]++
		}
	}
	for b := range l.bufs {
		for _, c := range b.chunks {
			if c.pg != nil {
				if c.pg.sp != nil {
					return fmt.Errorf("a Buf holds spliced page %p", c.pg)
				}
				holders[c.pg]++
			}
		}
	}
	for pg, n := range holders {
		if got := pg.refs.Load(); got != n {
			return fmt.Errorf("page %p: count %d, %d holders", pg, got, n)
		}
	}
	onList := make(map[*page]bool)
	pool := l.pm.pool
	for _, pg := range append(slices.Clone(pool.pages), pool.splices...) {
		if onList[pg] {
			return fmt.Errorf("page %p in the pool twice", pg)
		}
		onList[pg] = true
		if holders[pg] != 0 || pg.refs.Load() != 0 {
			return fmt.Errorf("pooled page %p has count %d, %d holders", pg, pg.refs.Load(), holders[pg])
		}
		if (pg.sp != nil) != (pg.data == nil) || pg.sp != nil && pg.sp.n != 0 {
			return fmt.Errorf("pooled page %p is neither a page buffer nor an empty spliced header", pg)
		}
	}
	return nil
}

// checkSplice verifies a spliced page: no bytes of its own, at most
// maxPieces pieces, each non-empty, inside the page, reading inside a page
// buffer, and all of them disjoint and sorted.
func checkSplice(pg *page) error {
	sp := pg.sp
	if pg.data != nil || sp.n < 0 || sp.n > maxPieces {
		return fmt.Errorf("spliced page %p: data %v, %d pieces", pg, pg.data != nil, sp.n)
	}
	prev := 0
	for i, pc := range sp.pieces[:sp.n] {
		lo, hi, s := int(pc.lo), int(pc.hi), int(pc.shift)
		if pc.src == nil || pc.src.data == nil || lo < prev || lo >= hi || hi > PageSize || lo-s < 0 || hi-s > PageSize {
			return fmt.Errorf("spliced page %p: piece %d [%d,%d) at shift %d is malformed", pg, i, lo, hi, s)
		}
		prev = hi
	}
	for _, pc := range sp.pieces[sp.n:] {
		if pc != (piece{}) {
			return fmt.Errorf("spliced page %p keeps a piece past its last", pg)
		}
	}
	return nil
}

// checkTornDown verifies the ledger after every mapping, pin and Buf is
// gone: every page buffer ever made, by the PhysMem or by a PageBuf, is
// back in the pool or was last held by a released Buf, every spliced page
// header is back in the pool, and none of them has a holder left. It
// counts page buffers, not spliced headers.
func (l *pageLedger) checkTornDown() error {
	if len(l.bufs) != 0 {
		return fmt.Errorf("%d Bufs still lent", len(l.bufs))
	}
	for _, pg := range l.pm.pool.splices {
		if n := pg.refs.Load(); n != 0 || pg.sp.n != 0 {
			return fmt.Errorf("pooled spliced header %p has count %d and %d pieces", pg, n, pg.sp.n)
		}
	}
	seen := make(map[*page]bool)
	for _, pg := range l.pm.pool.pages {
		seen[pg] = true
	}
	for pg := range l.lentPage {
		seen[pg] = true
	}
	for pg := range seen {
		if n := pg.refs.Load(); n != 0 {
			return fmt.Errorf("page %p still has count %d", pg, n)
		}
	}
	if made := l.pm.pagesMade + uint64(l.bufPages); uint64(len(seen)) != made {
		return fmt.Errorf("%d pages made, %d accounted for", made, len(seen))
	}
	return nil
}

// TestBufSnapshotSurvivesRemalloc: a Buf lent before its source is
// munmapped keeps reading its snapshot after a re-malloc has recycled pages
// and written new contents into them.
func TestBufSnapshotSurvivesRemalloc(t *testing.T) {
	const pages = 4
	pm := NewPhysMem(0)
	as := NewAddressSpace(1, pm)
	l := newPageLedger(pm)
	src, _ := as.Mmap(pages * PageSize)
	other, _ := as.Mmap(pages * PageSize)
	want := bytes.Repeat([]byte("snapshot"), pages*PageSize/8)
	as.Write(src, want)
	as.Write(other, bytes.Repeat([]byte{0x11}, pages*PageSize))
	b, ok := l.lend(as, src, pages*PageSize)
	if !ok {
		t.Fatal("source not resident")
	}
	as.Munmap(src, pages*PageSize)
	as.Munmap(other, pages*PageSize)
	if got := pm.RecycledPages(); got != pages {
		t.Fatalf("recycled %d pages, want %d (only the unlent mapping's)", got, pages)
	}
	again, _ := as.Mmap(2 * pages * PageSize)
	as.Write(again, bytes.Repeat([]byte{0xEE}, 2*pages*PageSize))
	if len(pm.pool.pages) != 0 || pm.pagesMade != 3*pages {
		t.Fatalf("re-malloc made %d pages with %d left free, want %d made and none free",
			pm.pagesMade, len(pm.pool.pages), 3*pages)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		t.Fatal("lent Buf lost its snapshot to a recycled page")
	}
	if err := l.check([]*AddressSpace{as}, nil); err != nil {
		t.Fatal(err)
	}
	l.release(b)
	as.Munmap(again, 2*pages*PageSize)
	if err := l.checkTornDown(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledPageDemandZero: a page written in full, freed, mapped again
// and then written only in part reads zeros everywhere else.
func TestRecycledPageDemandZero(t *testing.T) {
	pm := NewPhysMem(0)
	as := NewAddressSpace(1, pm)
	a, _ := as.Mmap(PageSize)
	as.Write(a, bytes.Repeat([]byte{0xFF}, PageSize))
	as.Munmap(a, PageSize)
	a, _ = as.Mmap(PageSize)
	as.Write(a+100, []byte("hi"))
	if pm.pagesMade != 1 {
		t.Fatalf("made %d pages, want the freed one recycled", pm.pagesMade)
	}
	got := make([]byte, PageSize)
	as.Read(a, got)
	want := make([]byte, PageSize)
	copy(want[100:], "hi")
	if !bytes.Equal(got, want) {
		t.Fatal("recycled page leaked its old contents past a partial write")
	}
}

// TestBufReleaseTwice: a second Release is a no-op, and once released the
// source writes in place instead of cloning.
func TestBufReleaseTwice(t *testing.T) {
	_, src, _ := pinnedPair(t)
	src.Frame(0).Write(0, []byte("data"))
	pg := src.Frame(0).pg
	var b Buf
	b.AppendFrame(src.Frame(0), 0, PageSize)
	b.Release()
	b.Release()
	if n := pg.refs.Load(); n != 1 {
		t.Fatalf("page count %d after double release, want 1", n)
	}
	if b.Len() != 0 {
		t.Fatalf("released Buf has length %d", b.Len())
	}
	src.Frame(0).Write(0, []byte("more"))
	if src.Frame(0).pg != pg {
		t.Fatal("sole holder cloned its page on write")
	}
}

// TestPageRefsConcurrentRelease: one goroutine owns the PhysMem and keeps
// writing, lending and freeing while another releases the lent Bufs — the
// cross-shard shape of the pull path. Run it under -race; every Buf must
// still read the snapshot it was lent.
func TestPageRefsConcurrentRelease(t *testing.T) {
	const (
		rounds = 200
		pages  = 4
	)
	type loan struct {
		b    *Buf
		want []byte
	}
	// A few loans of slack let the owner run ahead of the releaser, so
	// rewrites and frees land both before and after each release.
	loans := make(chan loan, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	errs := make(chan error, 1)
	go func() {
		defer wg.Done()
		for ln := range loans {
			if !bytes.Equal(ln.b.Bytes(), ln.want) {
				select {
				case errs <- fmt.Errorf("lent Buf changed under its reader"):
				default:
				}
			}
			ln.b.Release()
		}
	}()
	pm := NewPhysMem(0)
	as := NewAddressSpace(1, pm)
	data := make([]byte, pages*PageSize)
	for r := 0; r < rounds; r++ {
		a, _ := as.Mmap(pages * PageSize)
		for i := range data {
			data[i] = byte(r + i/PageSize)
		}
		as.Write(a, data)
		var b Buf
		for p := 0; p < pages; p++ {
			f, _ := as.FrameAt(a + Addr(p*PageSize))
			b.AppendFrame(f, 0, PageSize)
		}
		loans <- loan{b: &b, want: append([]byte(nil), data...)}
		// Rewrite half the pages while the loan may still be out (clone or
		// in place, depending on the reader's progress), then free.
		as.Write(a, bytes.Repeat([]byte{0xAA}, pages*PageSize/2))
		as.Munmap(a, pages*PageSize)
	}
	close(loans)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	for _, pg := range pm.pool.pages {
		if n := pg.refs.Load(); n != 0 {
			t.Fatalf("pooled page has count %d", n)
		}
	}
}

// TestPageRefsConcurrentAdopt is the page-table-translated pull path
// across two engine shards: one goroutine owns the sender's memory and
// lends ranges through ReadBuf; another owns the receiver's, adopts each
// loan through WriteBuf into its own mapping, releases it and lets its
// frames go. Pages cross between the two PhysMems by reference and end in
// whichever pool their last holder belongs to. Run it under -race;
// every adopted range must read what was lent.
func TestPageRefsConcurrentAdopt(t *testing.T) {
	const (
		rounds = 200
		pages  = 4
		n      = pages * PageSize
	)
	type loan struct {
		b    *Buf
		want []byte
	}
	// As in TestPageRefsConcurrentRelease, a few loans of slack let the
	// sender rewrite and free before and after each adoption.
	loans := make(chan loan, 8)
	errs := make(chan error, 1)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		as := NewAddressSpace(2, NewPhysMem(0))
		got := make([]byte, n)
		for ln := range loans {
			a, _ := as.Mmap(n)
			w := NewBufWriter(ln.b)
			if err := as.WriteBuf(a, &w, n); err != nil {
				fail(err)
			}
			ln.b.Release()
			as.Read(a, got)
			if !bytes.Equal(got, ln.want) {
				fail(fmt.Errorf("adopted range differs from the loan"))
			}
			// Write into an adopted page while the sender may still hold
			// it (a clone), then let every frame go.
			as.Write(a+PageSize/2, []byte{0x5A})
			as.Munmap(a, n)
		}
	}()
	as := NewAddressSpace(1, NewPhysMem(0))
	data := make([]byte, n)
	for r := 0; r < rounds; r++ {
		a, _ := as.Mmap(n)
		for i := range data {
			data[i] = byte(r + i/PageSize)
		}
		as.Write(a, data)
		b := &Buf{}
		if err := as.ReadBuf(a, n, b); err != nil {
			close(loans)
			wg.Wait()
			t.Fatal(err)
		}
		loans <- loan{b: b, want: append([]byte(nil), data...)}
		as.Write(a, bytes.Repeat([]byte{0xAA}, n/2))
		as.Munmap(a, n)
	}
	close(loans)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
