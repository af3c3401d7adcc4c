package vm

import (
	"fmt"
	"slices"
)

// Buf is a zero-copy, copy-on-reference view of byte contents assembled
// from page buffers. It is what the simulated wire carries instead of
// materialized []byte payloads: building a Buf from pinned frames is
// O(chunks) — no 4 KiB copies, no zero-fill — and writing one into
// destination frames adopts whole-page chunks by reference.
//
// Snapshot semantics: every frame chunk holds a reference to its page, so
// a write to the source frame while the Buf is alive clones the page first
// (Frame copy-on-write). A Buf therefore always reads as the data at
// reference time, exactly like the eager copy it replaces, while the
// common case (page never rewritten mid-flight, or all-zero pages that
// were never materialized) moves no bytes at all.
//
// Lending: the final consumer of a Buf calls Release once it no longer
// reads it, handing the page references back so the source can write in
// place again and freed pages can be recycled. Release keeps the chunk
// array, so a Buf that is released and refilled (a recycled pull reply's)
// allocates nothing once it has grown to its largest view. A Buf value
// copied around shares those references and that array: release exactly
// one copy, and refill none of the others. A Buf that is never released
// (lost on the wire) only costs the source a clone on its next write and
// leaves the pages to the garbage collector.
type Buf struct {
	length int
	chunks []bufChunk
}

// bufChunk is one contiguous piece: n bytes at offset off of a page whose
// reference the chunk holds. A nil page reads as zeros (an unmaterialized
// page, or a zero run).
type bufChunk struct {
	pg  *page
	off int
	n   int
}

// Len reports the byte length of the view.
func (b *Buf) Len() int { return b.length }

// AppendFrame appends n bytes at offset off of frame f, by reference.
func (b *Buf) AppendFrame(f *Frame, off, n int) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > PageSize {
		panic(fmt.Sprintf("vm: buf chunk [%d,%d) outside page", off, off+n))
	}
	pg := f.refPage() // nil for an unmaterialized (all-zero) page
	if pg == nil {
		b.AppendZeros(n)
		return
	}
	b.chunks = append(b.chunks, bufChunk{pg: pg, off: off, n: n})
	b.length += n
}

// Grow reserves room for n more chunks, so assembling a view of a range
// known to span n pages takes a single allocation.
func (b *Buf) Grow(n int) { b.chunks = slices.Grow(b.chunks, n) }

// Release drops the page references the view holds and empties it,
// keeping its chunk array (cleared, so it pins no page) for the next fill.
// Releasing an empty or already released Buf is a no-op.
func (b *Buf) Release() {
	for _, c := range b.chunks {
		if c.pg != nil {
			c.pg.put()
		}
	}
	clear(b.chunks)
	b.chunks = b.chunks[:0]
	b.length = 0
}

// AppendZeros appends n zero bytes without materializing them.
func (b *Buf) AppendZeros(n int) {
	if n <= 0 {
		return
	}
	if last := len(b.chunks) - 1; last >= 0 && b.chunks[last].pg == nil {
		b.chunks[last].n += n
	} else {
		b.chunks = append(b.chunks, bufChunk{n: n})
	}
	b.length += n
}

// PageBuf returns a page-backed copy of data: a Buf that owns page
// buffers holding data, one chunk a page (the last may be partial).
// Written at a page-aligned address through AddressSpace.WriteBuf, its
// whole pages are adopted by reference and only a partial last page is
// copied. The Buf holds one reference per page; Release it when done.
func PageBuf(data []byte) Buf {
	var b Buf
	b.Grow(PageCount(0, len(data)))
	for off := 0; off < len(data); off += PageSize {
		pg := &page{data: new([PageSize]byte)}
		pg.refs.Store(1)
		n := copy(pg.data[:], data[off:])
		b.chunks = append(b.chunks, bufChunk{pg: pg, n: n})
		b.length += n
	}
	return b
}

// RepeatPage returns a Buf of n whole-page chunks that all reference one
// page buffer holding a copy of data (at most a page; the rest reads as
// zeros), with one reference per chunk. A hog that dirties an n-page arena
// with the same contents builds it once and writes the whole arena with a
// single AddressSpace.WriteBuf: every page is adopted by reference, and a
// write of fewer than n whole pages copies only its final partial page.
// Release it when done.
func RepeatPage(data []byte, n int) Buf {
	if len(data) > PageSize {
		panic(fmt.Sprintf("vm: repeated page of %d bytes", len(data)))
	}
	if n <= 0 {
		return Buf{}
	}
	pg := &page{data: new([PageSize]byte)}
	pg.refs.Store(int32(n))
	copy(pg.data[:], data)
	b := Buf{length: n * PageSize, chunks: make([]bufChunk, n)}
	for i := range b.chunks {
		b.chunks[i] = bufChunk{pg: pg, n: PageSize}
	}
	return b
}

// CopyTo materializes the view into dst, which must be at least Len bytes.
func (b *Buf) CopyTo(dst []byte) {
	pos := 0
	for _, c := range b.chunks {
		if c.pg == nil {
			clear(dst[pos : pos+c.n])
		} else {
			copy(dst[pos:pos+c.n], c.pg.data[c.off:c.off+c.n])
		}
		pos += c.n
	}
}

// Bytes materializes the view into a fresh slice.
func (b *Buf) Bytes() []byte {
	dst := make([]byte, b.length)
	b.CopyTo(dst)
	return dst
}

// BufWriter consumes a Buf sequentially, writing it into frames. It adopts
// whole-page chunks (and whole-page zero runs) by reference and falls back
// to copying for partial pages, skipping any piece the frame already holds
// (see Frame.writeFrom).
type BufWriter struct {
	b  *Buf
	ci int // current chunk
	co int // offset consumed within current chunk
}

// NewBufWriter returns a sequential writer over b.
func NewBufWriter(b *Buf) BufWriter { return BufWriter{b: b} }

// WriteTo writes the next n bytes of the Buf into frame f at frameOff.
func (w *BufWriter) WriteTo(f *Frame, frameOff, n int) {
	for n > 0 {
		c := &w.b.chunks[w.ci]
		m := c.n - w.co
		if m > n {
			m = n
		}
		if m == 0 {
			w.ci++
			w.co = 0
			continue
		}
		if c.pg == nil {
			if frameOff == 0 && m == PageSize {
				f.adopt(nil) // full zero page: drop any materialized data
			} else {
				f.writeZeros(frameOff, m)
			}
		} else if frameOff == 0 && m == PageSize {
			// The chunk piece is a whole page buffer (a chunk never spans
			// past its page's end): share it.
			f.adopt(c.pg)
		} else {
			f.writeFrom(c.pg, c.off+w.co, frameOff, m)
		}
		frameOff += m
		n -= m
		w.co += m
		if w.co == c.n {
			w.ci++
			w.co = 0
		}
	}
}

// writeZeros zeroes [off, off+n) of the frame. Unmaterialized frames are
// already zero, so this is free for them.
func (f *Frame) writeZeros(off, n int) {
	if f.freed {
		panic(fmt.Sprintf("vm: write to freed frame %d", f.pfn))
	}
	if f.pg == nil || n <= 0 {
		return
	}
	f.ensureOwned()
	f.pg.stamp = f.pm.nextStamp()
	clear(f.pg.data[off : off+n])
}

// writeFrom copies the n bytes at offset so of page src into the frame at
// off, unless the frame's content already holds them there: the frame
// holds src itself and so == off, or its copy memo records those bytes as
// a copy of src's content at this shift. A receive buffer committed again
// from an unchanged send buffer, whose in-page offset differs from its
// own, writes nothing. A copy from a page with a known content updates the
// memo.
func (f *Frame) writeFrom(src *page, so, off, n int) {
	if f.freed {
		panic(fmt.Sprintf("vm: write to freed frame %d", f.pfn))
	}
	shift := int32(off - so)
	if f.pg == src && shift == 0 || f.memo.covers(f.pg, src.stamp, shift, off, off+n) {
		return
	}
	var prev uint64
	if f.pg != nil {
		prev = f.pg.stamp
	}
	f.Write(off, src.data[so:so+n])
	if src.stamp == 0 || f.pg == nil {
		return // an unknown content, or zeros left unmaterialized
	}
	if f.memo == nil {
		f.memo = f.pm.newMemo()
	}
	f.memo.note(prev, f.pg.stamp, src.stamp, shift, off, off+n)
}

// copyMemo is what a frame remembers of the content it last wrote: up to
// two records, each saying that bytes [lo, hi) of the content stamped dst
// equal the bytes shift below them in the content stamped src. Two cover a
// page fed from two source pages at one shift, as a receive buffer is
// when its in-page offset differs from the send buffer's. A stamp names
// one content forever, so a record never turns false; it applies only
// while the frame holds the content it describes.
type copyMemo struct {
	dst  uint64
	recs [2]copyRec
}

// copyRec is one record of a copyMemo; src 0 marks it empty.
type copyRec struct {
	src    uint64
	shift  int32 // offset in dst minus offset in src
	lo, hi uint16
}

// covers reports whether m records bytes [lo, hi) of pg's content as the
// bytes shift below them in content src. An unknown content (src 0)
// matches nothing.
func (m *copyMemo) covers(pg *page, src uint64, shift int32, lo, hi int) bool {
	if m == nil || pg == nil || src == 0 || m.dst != pg.stamp {
		return false
	}
	for i := range m.recs {
		if r := &m.recs[i]; r.src == src && r.shift == shift && int(r.lo) <= lo && hi <= int(r.hi) {
			return true
		}
	}
	return false
}

// note records that a copy of [lo, hi) from content src at shift turned
// the frame's content prev into dst. Records of prev still hold outside
// [lo, hi) and are trimmed to it, and one of the same source and shift
// that meets the range merges with it; records of any other content no
// longer apply and go. With both records taken, the new one replaces the
// one covering fewer bytes.
func (m *copyMemo) note(prev, dst, src uint64, shift int32, lo, hi int) {
	if m.dst != prev {
		m.recs = [2]copyRec{}
	}
	m.dst = dst
	nlo, nhi := lo, hi
	for i := range m.recs {
		r := &m.recs[i]
		switch {
		case r.src == 0:
		case r.src == src && r.shift == shift && int(r.lo) <= hi && lo <= int(r.hi):
			nlo, nhi = min(nlo, int(r.lo)), max(nhi, int(r.hi))
			*r = copyRec{}
		default:
			r.trim(lo, hi)
		}
	}
	i := 0
	if r0, r1 := &m.recs[0], &m.recs[1]; r0.src != 0 && (r1.src == 0 || r1.hi-r1.lo < r0.hi-r0.lo) {
		i = 1
	}
	m.recs[i] = copyRec{src: src, shift: shift, lo: uint16(nlo), hi: uint16(nhi)}
}

// trim takes [lo, hi) out of the record. Where that would leave two
// pieces it keeps the larger; where it leaves none it empties the record.
func (r *copyRec) trim(lo, hi int) {
	rlo, rhi := int(r.lo), int(r.hi)
	if hi <= rlo || rhi <= lo {
		return
	}
	below, above := lo-rlo, rhi-hi
	switch {
	case below <= 0 && above <= 0:
		*r = copyRec{}
	case below >= above:
		r.hi = uint16(lo)
	default:
		r.lo = uint16(hi)
	}
}
