package vm

import "sync/atomic"

// page is one 4 KiB page buffer with an exact reference count, the
// get_page/put_page analogue for page contents. Every holder owns one
// reference: the frame whose contents it is, each Buf chunk lent from that
// frame, each frame aliasing it after a COW break, fork or migration, each
// frame that adopted it from a Buf, and each swap slot holding it. A
// holder may write the bytes in place only while it is the sole holder;
// otherwise it clones first (Frame.ensureOwned), so every other holder
// keeps the snapshot it took.
//
// The count is atomic because a Buf crosses engine shards on the wire: the
// receiver releases its reference on its own shard while the sender's
// frame may be checking the count on another. Everything else about a page
// — the free list it returns to and the bytes of a sole-held page — stays
// on the shard of the node that holds it.
type page struct {
	data *[PageSize]byte
	refs atomic.Int32
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

// newPage returns a page with one reference held by the caller, taken from
// the free list when it has one. A recycled page holds stale bytes: the
// caller either overwrites all of it or clears what it does not write.
func (pm *PhysMem) newPage() (pg *page, recycled bool) {
	if n := len(pm.freePages); n > 0 {
		pg = pm.freePages[n-1]
		pm.freePages[n-1] = nil
		pm.freePages = pm.freePages[:n-1]
		recycled = true
	} else {
		pg = &page{data: new([PageSize]byte)}
		pm.pagesMade++
	}
	pg.refs.Store(1)
	return pg, recycled
}

// putPage drops a frame's or swap slot's reference; the last reference
// returns the page to this node's free list. Buf.Release drops its
// references without a PhysMem, so a page whose last holder was a Buf is
// left to the garbage collector instead.
func (pm *PhysMem) putPage(pg *page) {
	if pg != nil && pg.put() {
		pm.freePages = append(pm.freePages, pg)
		pm.recycled++
	}
}

// RecycledPages reports how many pages have gone back onto the free list
// because a frame or swap slot dropped their last reference.
func (pm *PhysMem) RecycledPages() uint64 { return pm.recycled }

// DropFreePages empties the page and frame free lists, leaving what they
// held to the garbage collector. A run's end calls it so an idle
// simulation holds no pooled page buffers or frames. A FrameRef to a
// dropped frame stays stale: its generation moved on at release.
func (pm *PhysMem) DropFreePages() {
	pm.freePages = nil
	pm.spareFrames = nil
}
