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
//
// stamp names the page's current contents: a stamp names one content
// forever. Every change to the bytes draws a new stamp (newPage, and the
// in-place writes of Frame.Write and Frame.writeZeros), and no stamp is
// drawn twice in the process, so two pages with the same nonzero stamp
// hold the same bytes, and a fact recorded about a stamp (a frame's
// copyMemo) stays true for as long as any page carries it. Pages made
// outside a PhysMem (PageBuf, RepeatPage) carry 0, "unknown", until a
// frame writes them. Another shard reads a stamp only through a lent Buf
// chunk, whose reference keeps the page's holders from writing it in
// place.
type page struct {
	data  *[PageSize]byte
	refs  atomic.Int32
	stamp uint64
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
	pg.stamp = pm.nextStamp()
	return pg, recycled
}

// stampBlock is how many content stamps a PhysMem takes from stampBlocks
// at a time, so that drawing one costs an increment of a field the node's
// own shard owns, not a shared atomic.
const stampBlock = 1 << 32

// stampBlocks counts the stamps handed out to every PhysMem in the
// process: block b is (b-stampBlock, b], and 0 is never drawn.
var stampBlocks atomic.Uint64

// nextStamp draws a content stamp no page of the process has carried.
func (pm *PhysMem) nextStamp() uint64 {
	if pm.stamp == pm.stampEnd {
		pm.stampEnd = stampBlocks.Add(stampBlock)
		pm.stamp = pm.stampEnd - stampBlock
	}
	pm.stamp++
	return pm.stamp
}

// memoSlab is how many copy memos newMemo carves from one allocation.
const memoSlab = 64

// newMemo returns an empty copy memo for one of this node's frames, carved
// from a slab so that a buffer's frames make one allocation per memoSlab
// memos. The memo stays with its frame for the frame's life, through
// release and reuse.
func (pm *PhysMem) newMemo() *copyMemo {
	if len(pm.memos) == 0 {
		pm.memos = make([]copyMemo, memoSlab)
	}
	m := &pm.memos[0]
	pm.memos = pm.memos[1:]
	return m
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

// DropFreePages empties the page and frame free lists and the rest of the
// copy-memo slab, leaving what they held to the garbage collector. A run's
// end calls it so an idle simulation holds no pooled page buffers, frames
// or memos. A FrameRef to a dropped frame stays stale: its generation
// moved on at release.
func (pm *PhysMem) DropFreePages() {
	pm.freePages = nil
	pm.spareFrames = nil
	pm.memos = nil
}
