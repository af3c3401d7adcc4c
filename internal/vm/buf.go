package vm

import (
	"fmt"
	"slices"
)

// Buf is a zero-copy, copy-on-reference view of byte contents assembled
// from page buffers. It is what the simulated wire carries instead of
// materialized []byte payloads: building a Buf from pinned frames is
// O(chunks) — no 4 KiB copies, no zero-fill — and writing one into
// destination frames adopts whole-page chunks by reference and splices
// partial ones (see BufWriter).
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
// Written through AddressSpace.WriteBuf, its whole pages are adopted by
// reference and its partial pages spliced or copied as BufWriter does.
// The Buf holds one reference per page; Release it when done.
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
// write of fewer than n whole pages writes only its final partial page as
// BufWriter does. Release it when done.
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
// whole-page chunks (and whole-page zero runs) by reference. A partial
// page is spliced, recorded as a piece of its source page, into a frame
// that reads as zeros or holds a spliced page, and copied into one that
// holds a page buffer (see Frame.writeFrom).
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
// already zero, so this is free for them, and a spliced page trims its
// pieces there instead.
func (f *Frame) writeZeros(off, n int) {
	if f.freed {
		panic(fmt.Sprintf("vm: write to freed frame %d", f.pfn))
	}
	if f.pg == nil || n <= 0 {
		return
	}
	if f.pg.sp != nil && !f.pg.shared() && f.pm.overlay(f.pg.sp, nil, 0, off, off+n) {
		return
	}
	f.ensureOwned()
	clear(f.pg.data[off : off+n])
}

// writeFrom writes the n bytes at offset so of page src into the frame at
// off. A frame that holds src itself at that offset already holds them. A
// frame that reads as zeros, or holds a spliced page no one else does,
// records them as a piece of src instead of copying them (see
// PhysMem.overlay); a receive buffer committed again from an unchanged
// send buffer finds the piece already there. The bytes are copied only
// into a page buffer, or when the splice would take more than maxPieces
// pieces.
func (f *Frame) writeFrom(src *page, so, off, n int) {
	if f.freed {
		panic(fmt.Sprintf("vm: write to freed frame %d", f.pfn))
	}
	switch {
	case f.pg == src && so == off:
		return
	case f.pg == nil:
		f.pg = f.pm.newSplice()
		f.pm.overlay(f.pg.sp, src, off-so, off, off+n)
		return
	case f.pg.sp != nil && !f.pg.shared() && f.pm.overlay(f.pg.sp, src, off-so, off, off+n):
		return
	}
	f.Write(off, src.data[so:so+n])
}
