package vm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// The in-page offsets of the shifted rig's message: two ranks' malloc'd
// buffers rarely start at the same offset into their first page, so no
// receive page is ever one whole source page.
const (
	rigSrcOff = 136
	rigDstOff = 2632
)

// shiftedRig is a message of pages pages at rigSrcOff into a source
// mapping and its receive buffer at rigDstOff into a destination mapping,
// both in one address space.
type shiftedRig struct {
	as       *AddressSpace
	src, dst Addr
	n        int
	b        Buf
}

func newShiftedRig(tb testing.TB, pages int) *shiftedRig {
	tb.Helper()
	r := &shiftedRig{as: NewAddressSpace(1, NewPhysMem(0)), n: pages * PageSize}
	var err error
	if r.src, err = r.as.Mmap((pages + 1) * PageSize); err != nil {
		tb.Fatal(err)
	}
	if r.dst, err = r.as.Mmap((pages + 1) * PageSize); err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, r.n)
	for i := range data {
		data[i] = byte(i*7 + i>>PageShift + 1)
	}
	if err := r.as.Write(r.src+rigSrcOff, data); err != nil {
		tb.Fatal(err)
	}
	return r
}

// commit lends the message through ReadBuf and writes it into the receive
// buffer through WriteBuf, as a pull reply is served and committed.
func (r *shiftedRig) commit(tb testing.TB) {
	if err := r.as.ReadBuf(r.src+rigSrcOff, r.n, &r.b); err != nil {
		tb.Fatal(err)
	}
	w := NewBufWriter(&r.b)
	if err := r.as.WriteBuf(r.dst+rigDstOff, &w, r.n); err != nil {
		tb.Fatal(err)
	}
	r.b.Release()
}

// received reports whether the receive buffer holds the message's current
// bytes.
func (r *shiftedRig) received() bool {
	want, got := make([]byte, r.n), make([]byte, r.n)
	r.as.Read(r.src+rigSrcOff, want)
	r.as.Read(r.dst+rigDstOff, got)
	return bytes.Equal(got, want)
}

// pages returns the page each frame of the message's pages at addr holds.
func (r *shiftedRig) pages(tb testing.TB, addr Addr) []*page {
	tb.Helper()
	var pgs []*page
	for a := PageAlignDown(addr); a < addr+Addr(r.n); a += PageSize {
		f, ok := r.as.FrameAt(a)
		if !ok || f.pg == nil {
			tb.Fatalf("page %#x holds no page", uint64(a))
		}
		pgs = append(pgs, f.pg)
	}
	return pgs
}

// TestSpliceSizes: spliced pages keep their pieces out of line, so a page
// header stays at 24 bytes, and Frame fits the 88-byte size class.
func TestSpliceSizes(t *testing.T) {
	if s := unsafe.Sizeof(Frame{}); s > 88 {
		t.Fatalf("Frame is %d bytes, past the 88-byte size class", s)
	}
	if s := unsafe.Sizeof(page{}); s > 24 {
		t.Fatalf("a page header is %d bytes, want at most 24", s)
	}
}

// TestSpliceShiftedCommitCopiesNothing: committing an 8-page message into
// a fresh receive buffer at another in-page offset makes no page buffer:
// every receive page is spliced from the source pages that feed it, and
// the buffer reads back the message.
func TestSpliceShiftedCommitCopiesNothing(t *testing.T) {
	r := newShiftedRig(t, 8)
	made := r.as.phys.pagesMade
	r.commit(t)
	if got := r.as.phys.pagesMade; got != made {
		t.Fatalf("the commit made %d page buffers, want none", got-made)
	}
	src := r.pages(t, r.src+rigSrcOff)
	for i, pg := range r.pages(t, r.dst+rigDstOff) {
		if pg.sp == nil {
			t.Fatalf("receive page %d holds a page buffer, want a spliced page", i)
		}
		if err := checkSplice(pg); err != nil {
			t.Fatal(err)
		}
		for _, pc := range pg.sp.pieces[:pg.sp.n] {
			if pc.src != src[i] && (i == 0 || pc.src != src[i-1]) {
				t.Fatalf("receive page %d reads a page other than source pages %d and %d", i, i-1, i)
			}
		}
	}
	if !r.received() {
		t.Fatal("the spliced receive buffer reads back the wrong bytes")
	}
}

// TestSpliceRecommitAllocatesNothing: committing an unchanged message
// again finds every piece already spliced. It allocates nothing, and no
// receive or source frame changes its page or splice.
func TestSpliceRecommitAllocatesNothing(t *testing.T) {
	r := newShiftedRig(t, 8)
	r.commit(t)
	dst, src := r.pages(t, r.dst+rigDstOff), r.pages(t, r.src+rigSrcOff)
	var splices []splice
	for _, pg := range dst {
		splices = append(splices, *pg.sp)
	}
	if n := testing.AllocsPerRun(10, func() { r.commit(t) }); n != 0 {
		t.Fatalf("a repeated commit allocated %v objects, want 0", n)
	}
	for i, pg := range r.pages(t, r.dst+rigDstOff) {
		if pg != dst[i] || *pg.sp != splices[i] {
			t.Fatalf("receive page %d changed under a commit of unchanged bytes", i)
		}
	}
	for i, pg := range r.pages(t, r.src+rigSrcOff) {
		if pg != src[i] {
			t.Fatalf("source page %d moved under a commit", i)
		}
	}
	if !r.received() {
		t.Fatal("receive buffer lost the message")
	}
}

// TestSpliceRewrittenSource: a source page rewritten while spliced is
// cloned by its owner, since the pieces hold it, so the receive buffer
// keeps the bytes it was committed. The next commit replaces the pieces
// of the two receive pages that page feeds, which drops the old page's
// last references, and makes no page buffer.
func TestSpliceRewrittenSource(t *testing.T) {
	r := newShiftedRig(t, 8)
	r.commit(t)
	old := make([]byte, r.n)
	r.as.Read(r.dst+rigDstOff, old)
	was := r.pages(t, r.src+rigSrcOff)[3]
	// Source page 3 holds message bytes [3*PageSize-rigSrcOff,
	// 4*PageSize-rigSrcOff), which land in receive pages 3 and 4.
	if err := r.as.Write(r.src+3*PageSize+100, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if r.pages(t, r.src+rigSrcOff)[3] == was {
		t.Fatal("a source page held by pieces was written in place")
	}
	if n := was.refs.Load(); n != 2 {
		t.Fatalf("the old source page has %d holders, want its 2 pieces", n)
	}
	got := make([]byte, r.n)
	r.as.Read(r.dst+rigDstOff, got)
	if !bytes.Equal(got, old) {
		t.Fatal("the receive buffer changed under a write to its source")
	}
	made := r.as.phys.pagesMade
	r.commit(t)
	if !r.received() {
		t.Fatal("the commit after a source rewrite delivered stale bytes")
	}
	if n := was.refs.Load(); n != 0 {
		t.Fatalf("the replaced source page keeps %d holders", n)
	}
	if got := r.as.phys.pagesMade; got != made {
		t.Fatalf("the commit after a rewrite made %d page buffers", got-made)
	}
}

// TestSpliceAcrossShards is the pull path across two engine shards with a
// reused receive buffer: one goroutine owns the sender's memory, lends the
// same message again and again through ReadBuf while it rewrites and frees
// other pages of its own, and every few rounds rewrites the message; the
// other owns the receiver's memory and commits each loan into its buffer
// at another in-page offset through WriteBuf, so its spliced pages read
// the sender's pages on its own shard, and the references its pieces hold
// keep the sender cloning instead of writing them in place. Run it under
// -race; every commit must read back the loan.
func TestSpliceAcrossShards(t *testing.T) {
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
	// sender run ahead, so its writes land before and after each release.
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
		dst, _ := as.Mmap(n + PageSize)
		got := make([]byte, n)
		for ln := range loans {
			w := NewBufWriter(ln.b)
			if err := as.WriteBuf(dst+rigDstOff, &w, n); err != nil {
				fail(err)
			}
			ln.b.Release()
			as.Read(dst+rigDstOff, got)
			if !bytes.Equal(got, ln.want) {
				fail(fmt.Errorf("committed loan differs from what was lent"))
			}
		}
	}()
	as := NewAddressSpace(1, NewPhysMem(0))
	src, _ := as.Mmap(n + PageSize)
	other, _ := as.Mmap(pages * PageSize)
	msg := make([]byte, n)
	for r := 0; r < rounds; r++ {
		if r%8 == 0 {
			for i := range msg {
				msg[i] = byte(r + i*3 + 1)
			}
			as.Write(src+rigSrcOff, msg)
		}
		b := &Buf{}
		if err := as.ReadBuf(src+rigSrcOff, n, b); err != nil {
			close(loans)
			wg.Wait()
			t.Fatal(err)
		}
		loans <- loan{b: b, want: append([]byte(nil), msg...)}
		// Rewrite other pages in place, and every other round free them
		// so their pages are recycled.
		as.Write(other+Addr(r%pages)*PageSize+rigSrcOff, []byte{byte(r), 0x5A})
		if r%2 == 1 {
			as.Munmap(other, pages*PageSize)
			other, _ = as.Mmap(pages * PageSize)
		}
	}
	close(loans)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestSpliceOverlay drives PhysMem.overlay directly: a piece merges with
// one of the same source and shift that it meets, trims what it
// overwrites, and a write that would leave more than maxPieces pieces is
// refused without a change. Each piece holds one reference on its source.
func TestSpliceOverlay(t *testing.T) {
	pm := NewPhysMem(0)
	a, _ := pm.newPage()
	b, _ := pm.newPage()
	sp := pm.newSplice()
	s := sp.sp
	type want struct {
		src    *page
		lo, hi int
	}
	expect := func(step string, ws ...want) {
		t.Helper()
		if err := checkSplice(sp); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if s.n != len(ws) {
			t.Fatalf("%s: %d pieces, want %d", step, s.n, len(ws))
		}
		for i, w := range ws {
			if pc := s.pieces[i]; pc.src != w.src || int(pc.lo) != w.lo || int(pc.hi) != w.hi {
				t.Fatalf("%s: piece %d is [%d,%d), want [%d,%d)", step, i, pc.lo, pc.hi, w.lo, w.hi)
			}
		}
		refs := map[*page]int32{a: 1, b: 1}
		for _, pc := range s.pieces[:s.n] {
			refs[pc.src]++
		}
		for pg, n := range refs {
			if pg.refs.Load() != n {
				t.Fatalf("%s: a source has count %d, want %d", step, pg.refs.Load(), n)
			}
		}
	}
	pm.overlay(s, a, 100, 1000, 2000)
	expect("first piece", want{a, 1000, 2000})
	pm.overlay(s, a, 100, 2000, 2500)
	expect("merge at the same shift", want{a, 1000, 2500})
	pm.overlay(s, a, 200, 1500, 1600)
	expect("split by another shift", want{a, 1000, 1500}, want{a, 1500, 1600}, want{a, 1600, 2500})
	if pm.overlay(s, b, 0, 1200, 1300) {
		t.Fatal("a fourth piece was accepted")
	}
	expect("refused", want{a, 1000, 1500}, want{a, 1500, 1600}, want{a, 1600, 2500})
	pm.overlay(s, b, 0, 900, 1700)
	expect("trim and drop", want{b, 900, 1700}, want{a, 1700, 2500})
	pm.overlay(s, nil, 0, 0, 1000)
	expect("zeros trim", want{b, 1000, 1700}, want{a, 1700, 2500})
	pm.putPage(sp)
	if a.refs.Load() != 1 || b.refs.Load() != 1 || len(pm.pool.splices) != 1 {
		t.Fatal("releasing the spliced page did not drop its pieces and pool its header")
	}
}

// TestSpliceSharedPageMaterializes: a spliced page another holder shares,
// as a fork's swap slot shares one, is never changed in place. A piece or a
// zero run written into its frame materializes a page buffer for the frame
// first, and the other holder keeps reading what it read.
func TestSpliceSharedPageMaterializes(t *testing.T) {
	for _, zeros := range []bool{false, true} {
		r := newShiftedRig(t, 2)
		r.commit(t)
		f, _ := r.as.FrameAt(PageAlignDown(r.dst + rigDstOff))
		sp := f.pg.get() // the other holder
		want := make([]byte, PageSize)
		sp.read(0, want)
		var b Buf
		if zeros {
			b.AppendZeros(PageSize - rigDstOff)
		} else {
			src, _ := r.as.FrameAt(r.src + PageSize)
			b.AppendFrame(src, 0, PageSize-rigDstOff)
		}
		w := NewBufWriter(&b)
		w.WriteTo(f, rigDstOff, PageSize-rigDstOff)
		b.Release()
		if f.pg == sp || f.pg.sp != nil {
			t.Fatalf("zeros=%v: the write changed a shared spliced page in place", zeros)
		}
		got := make([]byte, PageSize)
		sp.read(0, got)
		if !bytes.Equal(got, want) || sp.refs.Load() != 1 {
			t.Fatalf("zeros=%v: the other holder's spliced page changed", zeros)
		}
		r.as.phys.putPage(sp)
	}
}

// BenchmarkWriteBufShifted times the commit of a 64-page message into a
// receive buffer at another in-page offset, per page. Unchanged commits
// the same message again, so every piece is already spliced; Rewritten
// writes one byte into each source page first, so its owner clones it and
// every piece is replaced; Fresh unmaps and maps the receive buffer again
// first, as a re-malloc would, so every piece goes into a fresh frame.
func BenchmarkWriteBufShifted(b *testing.B) {
	const pages = 64
	for _, name := range []string{"Unchanged", "Rewritten", "Fresh"} {
		b.Run(name, func(b *testing.B) {
			r := newShiftedRig(b, pages)
			r.commit(b)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				switch name {
				case "Rewritten":
					for p := 0; p < pages; p++ {
						r.as.Write(r.src+Addr(p)<<PageShift+rigSrcOff, []byte{byte(i)})
					}
				case "Fresh":
					r.as.Munmap(r.dst, (pages+1)*PageSize)
					if err := r.as.MmapFixed(r.dst, (pages+1)*PageSize); err != nil {
						b.Fatal(err)
					}
				}
				r.commit(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
		})
	}
}
