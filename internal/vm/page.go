package vm

import "sync/atomic"

// page is one 4 KiB page buffer with an exact reference count, the
// get_page/put_page analogue for page contents. Every holder owns one
// reference: the frame whose contents it is, each Buf chunk lent from that
// frame, each frame aliasing it after a COW break, fork or migration, each
// frame that adopted it from a Buf, each swap slot holding it, and each
// piece of a spliced page that reads from it. A holder may write the bytes
// in place only while it is the sole holder; otherwise it clones first
// (Frame.ensureOwned), so every other holder keeps the snapshot it took.
//
// A spliced page holds no bytes of its own (data is nil): it reads as
// zeros overlaid with the pieces of other pages its splice lists. A
// receive commit records a partial-page piece that way instead of copying
// it (Frame.writeFrom). A Buf never holds a spliced page, and a page never
// reads from one: every in-place write, clone and Buf reference
// materializes it into a page buffer first, so a spliced page never leaves
// its node.
//
// The count is atomic because a Buf crosses engine shards on the wire: the
// receiver releases its reference on its own shard while the sender's
// frame may be checking the count on another. Everything else about a page
// — the pool it returns to and the bytes of a sole-held page — stays on
// the shard of the node that holds it.
type page struct {
	data *[PageSize]byte // nil for a spliced page
	refs atomic.Int32
	sp   *splice // the pieces of a spliced page; nil otherwise
}

// get takes one more reference.
func (pg *page) get() *page {
	pg.refs.Add(1)
	return pg
}

// put drops one reference and reports whether it was the last.
func (pg *page) put() bool {
	n := pg.refs.Add(-1)
	if n < 0 {
		panic("vm: page reference count underflow")
	}
	return n == 0
}

// shared reports whether a holder other than the caller exists.
func (pg *page) shared() bool { return pg.refs.Load() > 1 }

// read copies the page's bytes [off, off+len(dst)) into dst.
func (pg *page) read(off int, dst []byte) {
	if pg.sp != nil {
		pg.sp.read(off, dst)
		return
	}
	copy(dst, pg.data[off:])
}

// maxPieces bounds the pieces of one spliced page. A receive page fed at
// one shift from two source pages needs two; the third absorbs a piece at
// another shift, as at a message boundary.
const maxPieces = 3

// splice lists a spliced page's pieces: disjoint, sorted by lo, and read
// over zeros.
type splice struct {
	n      int
	pieces [maxPieces]piece
}

// piece is bytes [lo, hi) of a spliced page, which read as bytes
// [lo-shift, hi-shift) of page src. It holds one reference on src, so src
// is neither recycled nor written in place while the piece lives, and a
// piece of the same src at the same shift is the same bytes.
type piece struct {
	src    *page
	shift  int16
	lo, hi uint16
}

// read copies bytes [off, off+len(dst)) of the spliced page into dst.
func (sp *splice) read(off int, dst []byte) {
	end, pos := off+len(dst), off
	for _, pc := range sp.pieces[:sp.n] {
		lo, hi := max(int(pc.lo), pos), min(int(pc.hi), end)
		if lo >= hi {
			continue
		}
		clear(dst[pos-off : lo-off])
		s := int(pc.shift)
		copy(dst[lo-off:hi-off], pc.src.data[lo-s:hi-s])
		pos = hi
	}
	clear(dst[pos-off:])
}

// covers reports whether the splice already reads [lo, hi) from src at
// shift.
func (sp *splice) covers(src *page, shift, lo, hi int) bool {
	for _, pc := range sp.pieces[:sp.n] {
		if pc.src == src && int(pc.shift) == shift && int(pc.lo) <= lo && hi <= int(pc.hi) {
			return true
		}
	}
	return false
}

// overlay makes bytes [lo, hi) of the spliced page read from src at shift,
// or as zeros when src is nil. The new piece merges with a piece of the
// same source at the same shift that it meets, and trims what it
// overwrites. It reports false, changing nothing, when the result would
// take more than maxPieces pieces.
func (pm *PhysMem) overlay(sp *splice, src *page, shift, lo, hi int) bool {
	if src != nil && sp.covers(src, shift, lo, hi) {
		return true
	}
	// Each old piece leaves at most two, and only one of them can leave
	// two (the pieces are disjoint).
	var out [maxPieces + 2]piece
	var dropped [maxPieces]*page
	var split *page
	k, nd, merged := 0, 0, false
	nlo, nhi := lo, hi
	for _, pc := range sp.pieces[:sp.n] {
		plo, phi := int(pc.lo), int(pc.hi)
		switch {
		case src != nil && pc.src == src && int(pc.shift) == shift && plo <= hi && lo <= phi:
			// The new piece takes over this one's reference; a second
			// merged piece drops its own.
			nlo, nhi = min(nlo, plo), max(nhi, phi)
			if merged {
				dropped[nd], nd = pc.src, nd+1
			}
			merged = true
		case phi <= lo || hi <= plo:
			out[k], k = pc, k+1
		default:
			kept := 0
			if plo < lo {
				out[k], k, kept = piece{pc.src, pc.shift, pc.lo, uint16(lo)}, k+1, kept+1
			}
			if hi < phi {
				out[k], k, kept = piece{pc.src, pc.shift, uint16(hi), pc.hi}, k+1, kept+1
			}
			switch kept {
			case 0:
				dropped[nd], nd = pc.src, nd+1
			case 2:
				split = pc.src
			}
		}
	}
	if src != nil {
		// Insert the new piece in lo order.
		i := k
		for i > 0 && int(out[i-1].lo) > nlo {
			out[i] = out[i-1]
			i--
		}
		out[i], k = piece{src, int16(shift), uint16(nlo), uint16(nhi)}, k+1
	}
	if k > maxPieces {
		return false
	}
	if src != nil && !merged {
		src.get()
	}
	if split != nil {
		split.get()
	}
	for _, pg := range dropped[:nd] {
		pm.putPage(pg)
	}
	sp.n = copy(sp.pieces[:], out[:k])
	clear(sp.pieces[k:])
	return true
}

// Pool recycles what the nodes of one engine shard let go of: page
// buffers, spliced page headers and page-table leaves. A piece of a spliced
// page is often the last holder of its peer's send page, so with a pool
// per node one side of a ping-pong would collect every released page
// while the other made new ones; a pool per shard hands them back. Only
// the shard's own goroutine touches it. None of its lists is capped: each
// stays below the shard's peak of live objects of its kind.
type Pool struct {
	pages   []*page // page buffers whose last holder let go
	splices []*page // spliced page headers, with no pieces
	leaves  []*leaf // page-table leaves whose every PTE is zero
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// SetPool makes the PhysMem take page buffers, spliced page headers and
// page-table leaves from p and return them there, sharing p with the
// other nodes of its engine shard. A node sets it once, before it runs.
func (pm *PhysMem) SetPool(p *Pool) { pm.pool = p }

// newPage returns a page buffer with one reference held by the caller,
// taken from the pool when it has one. A recycled page holds stale bytes:
// the caller either overwrites all of it or clears what it does not write.
func (pm *PhysMem) newPage() (pg *page, recycled bool) {
	p := pm.pool
	if n := len(p.pages); n > 0 {
		pg = p.pages[n-1]
		p.pages[n-1] = nil
		p.pages = p.pages[:n-1]
		recycled = true
	} else {
		pg = &page{data: new([PageSize]byte)}
		pm.pagesMade++
	}
	pg.refs.Store(1)
	return pg, recycled
}

// newSplice returns a spliced page with no pieces, which reads as zeros,
// with one reference held by the caller. A new header and its splice are
// one allocation.
func (pm *PhysMem) newSplice() *page {
	p := pm.pool
	var pg *page
	if n := len(p.splices); n > 0 {
		pg = p.splices[n-1]
		p.splices[n-1] = nil
		p.splices = p.splices[:n-1]
	} else {
		s := new(struct {
			pg page
			sp splice
		})
		s.pg.sp = &s.sp
		pg = &s.pg
	}
	pg.refs.Store(1)
	return pg
}

// putPage drops a reference held by one of this node's frames, swap slots
// or spliced pages; the last reference returns the page to the pool, a
// spliced page after dropping its pieces' references. Buf.Release drops
// its references without a PhysMem, so a page whose last holder was a Buf
// is left to the garbage collector instead.
func (pm *PhysMem) putPage(pg *page) {
	if pg == nil || !pg.put() {
		return
	}
	p := pm.pool
	if sp := pg.sp; sp != nil {
		for _, pc := range sp.pieces[:sp.n] {
			pm.putPage(pc.src)
		}
		*sp = splice{}
		p.splices = append(p.splices, pg)
		return
	}
	p.pages = append(p.pages, pg)
	pm.recycled++
}

// newLeaf returns a page-table leaf whose every PTE is zero, taken from
// the pool when it has one.
func (pm *PhysMem) newLeaf() *leaf {
	p := pm.pool
	if n := len(p.leaves); n > 0 {
		l := p.leaves[n-1]
		p.leaves[n-1] = nil
		p.leaves = p.leaves[:n-1]
		return l
	}
	return new(leaf)
}

// RecycledPages reports how many page buffers this node has returned to
// its pool because a frame, swap slot or spliced page dropped their last
// reference.
func (pm *PhysMem) RecycledPages() uint64 { return pm.recycled }

// DropFreePages empties the pool and the frame free list, leaving what
// they held to the garbage collector. A run's end calls it so an idle
// simulation holds no pooled page buffers, headers, leaves or frames. A
// FrameRef to a dropped frame stays stale: its generation moved on at
// release.
func (pm *PhysMem) DropFreePages() {
	*pm.pool = Pool{}
	pm.spareFrames = nil
}
