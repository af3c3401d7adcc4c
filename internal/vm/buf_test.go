package vm

import (
	"bytes"
	"testing"
)

// pinnedPair maps and pins one page in each of two address spaces sharing
// physical memory, returning the source and destination frames.
func pinnedPair(t *testing.T) (*AddressSpace, *Pinned, *Pinned) {
	t.Helper()
	pm := NewPhysMem(0)
	as := NewAddressSpace(1, pm)
	srcAddr, err := as.Mmap(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	dstAddr, err := as.Mmap(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	src, err := as.Pin(srcAddr, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := as.Pin(dstAddr, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return as, src, dst
}

// TestBufZeroPagesStayUnmaterialized: referencing and writing all-zero
// pages must never allocate page data on either side.
func TestBufZeroPagesStayUnmaterialized(t *testing.T) {
	_, src, dst := pinnedPair(t)
	var b Buf
	b.AppendFrame(src.Frame(0), 0, PageSize)
	if b.Len() != PageSize {
		t.Fatalf("Len = %d, want %d", b.Len(), PageSize)
	}
	w := NewBufWriter(&b)
	w.WriteTo(dst.Frame(0), 0, PageSize)
	if src.Frame(0).pg != nil || dst.Frame(0).pg != nil {
		t.Fatal("zero pages were materialized by a Buf round trip")
	}
	got := make([]byte, 16)
	dst.Frame(0).Read(0, got)
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("dst reads %v, want zeros", got)
	}
}

// TestBufAdoptSharesAndCOWIsolates: writing a full-page chunk adopts the
// source buffer by reference; a later write to either frame clones first,
// so each side keeps its own snapshot.
func TestBufAdoptSharesAndCOWIsolates(t *testing.T) {
	_, src, dst := pinnedPair(t)
	payload := bytes.Repeat([]byte{0xAB}, PageSize)
	src.Frame(0).Write(0, payload)

	var b Buf
	b.AppendFrame(src.Frame(0), 0, PageSize)
	w := NewBufWriter(&b)
	w.WriteTo(dst.Frame(0), 0, PageSize)
	if src.Frame(0).pg != dst.Frame(0).pg {
		t.Fatal("full-page write did not adopt the source buffer by reference")
	}

	// Writing the source must clone, leaving the destination's snapshot
	// intact.
	src.Frame(0).Write(0, []byte{0xCD})
	got := make([]byte, 2)
	dst.Frame(0).Read(0, got)
	if got[0] != 0xAB || got[1] != 0xAB {
		t.Fatalf("dst sees source mutation: %v", got)
	}
	srcGot := make([]byte, 2)
	src.Frame(0).Read(0, srcGot)
	if srcGot[0] != 0xCD || srcGot[1] != 0xAB {
		t.Fatalf("src = %v, want [cd ab]", srcGot)
	}
}

// TestBufSnapshotSurvivesSourceRewrite: a Buf taken before a source write
// must read the referenced-time contents (the eager-copy semantics the
// zero-copy path replaces).
func TestBufSnapshotSurvivesSourceRewrite(t *testing.T) {
	_, src, _ := pinnedPair(t)
	src.Frame(0).Write(0, []byte("snapshot"))
	var b Buf
	b.AppendFrame(src.Frame(0), 0, 8)
	src.Frame(0).Write(0, []byte("REWRITE!"))
	if got := string(b.Bytes()); got != "snapshot" {
		t.Fatalf("Buf reads %q, want %q", got, "snapshot")
	}
}

// TestBufPartialPageCopies: partial-page chunks written into a frame that
// holds a page buffer copy rather than adopt or splice, and land at the
// right offsets.
func TestBufPartialPageCopies(t *testing.T) {
	_, src, dst := pinnedPair(t)
	src.Frame(0).Write(100, []byte("hello"))
	dst.Frame(0).Write(0, []byte{1})
	var b Buf
	b.AppendFrame(src.Frame(0), 100, 5)
	b.AppendZeros(3)
	b.AppendFrame(src.Frame(0), 100, 5)
	if b.Len() != 13 {
		t.Fatalf("Len = %d, want 13", b.Len())
	}
	w := NewBufWriter(&b)
	w.WriteTo(dst.Frame(0), 200, 13)
	got := make([]byte, 13)
	dst.Frame(0).Read(200, got)
	want := append(append([]byte("hello"), 0, 0, 0), []byte("hello")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("dst = %q, want %q", got, want)
	}
	if refs := dst.Frame(0).pg.refs.Load(); refs != 1 {
		t.Fatalf("partial-page write left the destination page with %d holders, want 1", refs)
	}
	b.Release()
	if refs := src.Frame(0).pg.refs.Load(); refs != 1 {
		t.Fatalf("released source page has %d holders, want 1", refs)
	}
}

// TestPageBufAdoptedByReference: WriteBuf adopts a PageBuf's whole pages
// into page-aligned frames and splices its partial last page; written at
// an unaligned address, every piece is copied or spliced. A later write to
// an adopting frame clones, so the PageBuf keeps its bytes, and once the
// mapping is gone, releasing the PageBuf leaves its pages unheld.
func TestPageBufAdoptedByReference(t *testing.T) {
	const n = 2*PageSize + 100
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	pb := PageBuf(data)
	as := NewAddressSpace(1, NewPhysMem(0))
	a, _ := as.Mmap(4 * PageSize)
	w := NewBufWriter(&pb)
	if err := as.WriteBuf(a, &w, n); err != nil {
		t.Fatal(err)
	}
	for i, c := range pb.chunks {
		f, _ := as.FrameAt(a + Addr(i)<<PageShift)
		if adopted := f.pg == c.pg; adopted != (c.n == PageSize) {
			t.Fatalf("page %d: adopted=%v for a %d-byte chunk", i, adopted, c.n)
		}
	}
	as.Write(a, []byte{0xFF})
	if f, _ := as.FrameAt(a); f.pg == pb.chunks[0].pg {
		t.Fatal("a write into an adopted page did not clone it")
	}
	if !bytes.Equal(pb.Bytes(), data) {
		t.Fatal("the PageBuf changed under a write to an adopting frame")
	}
	u := a + PageSize + 7
	w = NewBufWriter(&pb)
	if err := as.WriteBuf(u, &w, PageSize+1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize+1)
	as.Read(u, got)
	if !bytes.Equal(got, data[:PageSize+1]) {
		t.Fatal("an unaligned WriteBuf wrote the wrong bytes")
	}
	as.Munmap(a, 4*PageSize)
	// Release clears the chunk array it keeps: record the pages first.
	pages := make([]*page, len(pb.chunks))
	for i, c := range pb.chunks {
		pages[i] = c.pg
	}
	pb.Release()
	for i, pg := range pages {
		if n := pg.refs.Load(); n != 0 {
			t.Fatalf("page %d of the released PageBuf still has %d holders", i, n)
		}
	}
}
