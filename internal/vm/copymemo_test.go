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

// pageState is a receive page's page buffer and its content stamp.
type pageState struct {
	pg    *page
	stamp uint64
}

// receivePages returns the state of every page of the receive buffer.
func (r *shiftedRig) receivePages(tb testing.TB) []pageState {
	tb.Helper()
	var st []pageState
	for a := PageAlignDown(r.dst + rigDstOff); a < r.dst+rigDstOff+Addr(r.n); a += PageSize {
		f, ok := r.as.FrameAt(a)
		if !ok || f.pg == nil {
			tb.Fatalf("receive page %#x holds no page", uint64(a))
		}
		st = append(st, pageState{f.pg, f.pg.stamp})
	}
	return st
}

// TestCopyMemoSkipsUnchangedSource: committing an unchanged message again
// into a receive buffer at another in-page offset writes nothing: every
// receive page keeps its page buffer and its stamp, and the commit
// allocates nothing. Once one source page is rewritten, the next commit
// copies the receive pages that page feeds, and only those, and the buffer
// reads back the new bytes. The memo pointer costs the frame no size class.
func TestCopyMemoSkipsUnchangedSource(t *testing.T) {
	if s := unsafe.Sizeof(Frame{}); s > 96 {
		t.Fatalf("Frame is %d bytes, past the 96-byte size class", s)
	}
	const pages = 8
	r := newShiftedRig(t, pages)
	r.commit(t) // copies every piece and records it
	before := r.receivePages(t)
	if n := testing.AllocsPerRun(10, func() { r.commit(t) }); n != 0 {
		t.Fatalf("a repeated commit allocated %v objects, want 0", n)
	}
	for i, st := range r.receivePages(t) {
		if st != before[i] {
			t.Fatalf("receive page %d changed under a commit of unchanged bytes", i)
		}
	}
	if !r.received() {
		t.Fatal("receive buffer lost the message")
	}

	// Source page 3 holds message bytes [3*PageSize-rigSrcOff,
	// 4*PageSize-rigSrcOff), which land in receive pages 3 and 4.
	if err := r.as.Write(r.src+3*PageSize+100, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	r.commit(t)
	if !r.received() {
		t.Fatal("the commit after a source rewrite delivered stale bytes")
	}
	for i, st := range r.receivePages(t) {
		if copied := st.stamp != before[i].stamp; copied != (i == 3 || i == 4) {
			t.Fatalf("receive page %d: copied %v after source page 3 changed", i, copied)
		}
	}
}

// TestCopyMemoAcrossShards is the pull path across two engine shards with
// a reused receive buffer: one goroutine owns the sender's memory, lends
// the same message again and again through ReadBuf while it rewrites
// other pages of its own, and every few rounds rewrites the message; the
// other owns the receiver's memory and commits each loan into its buffer
// at another in-page offset through WriteBuf, so that repeated loans of
// unchanged pages hit its copy memos, reading the lent pages' stamps on
// its own shard. Run it under -race; every commit must read back the loan.
func TestCopyMemoAcrossShards(t *testing.T) {
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
		// so their pages are recycled with fresh stamps.
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

// BenchmarkWriteBufShifted times the commit of a 64-page message into a
// receive buffer at another in-page offset, per page: Unchanged commits
// the same message again, so every piece is skipped; Rewritten writes one
// byte into each source page first, so every piece is copied.
func BenchmarkWriteBufShifted(b *testing.B) {
	const pages = 64
	for _, rewrite := range []bool{false, true} {
		name := "Unchanged"
		if rewrite {
			name = "Rewritten"
		}
		b.Run(name, func(b *testing.B) {
			r := newShiftedRig(b, pages)
			r.commit(b)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if rewrite {
					for p := 0; p < pages; p++ {
						r.as.Write(r.src+Addr(p)<<PageShift+rigSrcOff, []byte{byte(i)})
					}
				}
				r.commit(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
		})
	}
}
