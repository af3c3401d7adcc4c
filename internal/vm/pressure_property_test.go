package vm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropPressureInterleavings drives random fault / pin / unpin / fork /
// munmap / swap / migrate / lend / release sequences against a
// tight-capacity PhysMem, so direct reclaim and kswapd passes fire
// constantly underneath the workload, and asserts the invariants the
// reclaim subsystem must never break:
//
//  1. pinned frames are never reclaimed: every handle's frames are
//     pointer-stable from pin to unpin and read back the model's bytes;
//  2. reference counts balance at teardown: with every handle unpinned,
//     every child dropped, and every mapping gone, no frames remain in
//     use and no swap slots stay accounted;
//  3. data survives swap-out/swap-in round trips: reads through live
//     mappings always match a plain in-memory model;
//  4. page reference counts equal their holders after every operation,
//     lent Bufs keep their snapshots through reclaim, and at teardown
//     every page ever made is accounted for with no holder left.
func TestPropPressureInterleavings(t *testing.T) {
	const (
		nMaps    = 8
		mapPages = 8
		capacity = 40 // < nMaps*mapPages: overcommitted by construction
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := NewPhysMem(capacity)
		pm.SetWatermarks(0, 0)
		as := NewAddressSpace(1, pm)
		l := newPageLedger(pm)

		type pin struct {
			h      *Pinned
			frames []FrameRef
			mi     int
			off    int // byte offset of the pinned range in the mapping
			length int
			frozen []byte // expected bytes once the mapping dies (nil while alive)
		}
		addrs := make([]Addr, nMaps)
		model := make([][]byte, nMaps) // nil = mapping dead
		for i := range addrs {
			a, err := as.Mmap(mapPages * PageSize)
			if err != nil {
				t.Fatalf("mmap: %v", err)
			}
			addrs[i] = a
			model[i] = make([]byte, mapPages*PageSize)
		}
		var pins []*pin
		var children []*AddressSpace
		pinnedPages := 0
		type loan struct {
			b    *Buf
			want []byte
		}
		var loans []loan
		release := func(i int) bool {
			ln := loans[i]
			if !bytes.Equal(ln.b.Bytes(), ln.want) {
				t.Logf("seed %d: lent Buf lost its snapshot", seed)
				return false
			}
			l.release(ln.b)
			loans = append(loans[:i], loans[i+1:]...)
			return true
		}
		checkRefs := func(when string) bool {
			handles := make([]*Pinned, len(pins))
			for i, p := range pins {
				handles[i] = p.h
			}
			if err := l.check(append([]*AddressSpace{as}, children...), handles); err != nil {
				t.Logf("seed %d: %s: %v", seed, when, err)
				return false
			}
			return true
		}

		liveMap := func() int {
			for tries := 0; tries < 2*nMaps; tries++ {
				if mi := rng.Intn(nMaps); model[mi] != nil {
					return mi
				}
			}
			return -1
		}
		checkPin := func(p *pin) bool {
			for i, fr := range p.h.Frames() {
				if fr != p.frames[i] {
					t.Logf("seed %d: pinned frame %d changed under pressure", seed, i)
					return false
				}
			}
			want := p.frozen
			if want == nil {
				want = model[p.mi][p.off : p.off+p.length]
			}
			got := make([]byte, p.length)
			pageOff := p.off & (PageSize - 1)
			if err := p.h.ReadAt(pageOff, got); err != nil {
				t.Logf("seed %d: pinned read: %v", seed, err)
				return false
			}
			if !bytes.Equal(got, want) {
				t.Logf("seed %d: pinned data diverged from model", seed)
				return false
			}
			return true
		}
		dropChild := func(i int) {
			child := children[i]
			for _, v := range append([]*vma(nil), child.vmas...) {
				if err := child.Munmap(v.start, int(v.end-v.start)); err != nil {
					t.Fatalf("seed %d: child munmap: %v", seed, err)
				}
			}
			children = append(children[:i], children[i+1:]...)
		}

		for op := 0; op < 300; op++ {
			switch rng.Intn(12) {
			case 0, 1, 2: // write random bytes (faults, COW breaks, reclaim)
				mi := liveMap()
				if mi < 0 {
					continue
				}
				off := rng.Intn(mapPages*PageSize - 1)
				n := 1 + rng.Intn(mapPages*PageSize-off)
				data := make([]byte, n)
				rng.Read(data)
				// Page at a time, updating the model only for pages that
				// landed: with fork children alive most frames are
				// COW-shared and unreclaimable, so an allocation can
				// legitimately fail mid-range — the model must not drift.
				done := 0
				for done < n {
					a := addrs[mi] + Addr(off+done)
					chunk := PageSize - int(a&(PageSize-1))
					if chunk > n-done {
						chunk = n - done
					}
					if err := as.Write(a, data[done:done+chunk]); err != nil {
						break // ErrNoMemory under extreme sharing: tolerated
					}
					copy(model[mi][off+done:], data[done:done+chunk])
					done += chunk
				}
			case 3: // read back a whole mapping (swap-ins) and verify
				mi := liveMap()
				if mi < 0 {
					continue
				}
				got := make([]byte, mapPages*PageSize)
				if err := as.Read(addrs[mi], got); err != nil {
					continue // swap-in allocation failed under pressure
				}
				if !bytes.Equal(got, model[mi]) {
					t.Logf("seed %d: mapping %d diverged from model", seed, mi)
					return false
				}
			case 4: // pin a range (bounded so reclaim always has prey)
				mi := liveMap()
				if mi < 0 || len(pins) >= 4 || pinnedPages+4 > capacity/2 {
					continue
				}
				first := rng.Intn(mapPages - 1)
				count := 1 + rng.Intn(4)
				if first+count > mapPages {
					count = mapPages - first
				}
				h, err := as.PinPages(addrs[mi], first, count)
				if err != nil {
					continue // pressure may legitimately defeat the pin
				}
				pins = append(pins, &pin{
					h:      h,
					frames: append([]FrameRef(nil), h.Frames()...),
					mi:     mi,
					off:    first * PageSize,
					length: count * PageSize,
				})
				pinnedPages += count
			case 5: // unpin (verifying stability + data first)
				if len(pins) == 0 {
					continue
				}
				i := rng.Intn(len(pins))
				p := pins[i]
				if !checkPin(p) {
					return false
				}
				if err := p.h.Unpin(); err != nil {
					t.Logf("seed %d: unpin: %v", seed, err)
					return false
				}
				pinnedPages -= p.length / PageSize
				pins = append(pins[:i], pins[i+1:]...)
			case 6: // fork (children only ever read)
				if len(children) >= 2 {
					dropChild(rng.Intn(len(children)))
				}
				child, err := as.Fork(100 + op)
				if err != nil {
					continue // alloc failure under pressure: rolled back
				}
				children = append(children, child)
			case 7: // munmap a whole mapping; pins over it freeze
				mi := liveMap()
				if mi < 0 {
					continue
				}
				for _, p := range pins {
					if p.mi == mi && p.frozen == nil {
						p.frozen = append([]byte(nil), model[mi][p.off:p.off+p.length]...)
					}
				}
				if err := as.Munmap(addrs[mi], mapPages*PageSize); err != nil {
					t.Logf("seed %d: munmap: %v", seed, err)
					return false
				}
				model[mi] = nil
			case 8: // injected swap pressure on top of the emergent kind
				mi := liveMap()
				if mi < 0 {
					continue
				}
				if _, err := as.SwapOut(addrs[mi], mapPages*PageSize); err != nil {
					t.Logf("seed %d: swapout: %v", seed, err)
					return false
				}
			case 9: // migration plus an explicit kswapd pass
				if mi := liveMap(); mi >= 0 {
					// Partial migration under allocation failure is fine;
					// contents are preserved either way.
					_, _ = as.Migrate(addrs[mi], mapPages*PageSize)
				}
				pm.KswapdPass()
			case 10: // lend a resident range, as a sender's pull path would
				mi := liveMap()
				if mi < 0 {
					continue
				}
				off := rng.Intn(mapPages*PageSize - 1)
				n := 1 + rng.Intn(mapPages*PageSize-off)
				if b, ok := l.lend(as, addrs[mi]+Addr(off), n); ok {
					loans = append(loans, loan{b, append([]byte(nil), model[mi][off:off+n]...)})
				}
			case 11: // release a loan (verifying its snapshot first)
				if len(loans) > 0 && !release(rng.Intn(len(loans))) {
					return false
				}
			}
			if !checkRefs("after op") {
				return false
			}
			if pm.FramesInUse() > capacity {
				t.Logf("seed %d: FramesInUse %d exceeds capacity", seed, pm.FramesInUse())
				return false
			}
		}

		// Teardown: verify and release everything, then the ledger must be
		// exactly empty.
		for len(loans) > 0 {
			if !release(0) {
				return false
			}
		}
		for _, p := range pins {
			if !checkPin(p) {
				return false
			}
			if err := p.h.Unpin(); err != nil {
				t.Logf("seed %d: teardown unpin: %v", seed, err)
				return false
			}
		}
		for len(children) > 0 {
			dropChild(0)
		}
		for mi := range addrs {
			if model[mi] == nil {
				continue
			}
			got := make([]byte, mapPages*PageSize)
			if err := as.Read(addrs[mi], got); err != nil || !bytes.Equal(got, model[mi]) {
				t.Logf("seed %d: final verify of mapping %d failed (%v)", seed, mi, err)
				return false
			}
			if err := as.Munmap(addrs[mi], mapPages*PageSize); err != nil {
				t.Logf("seed %d: final munmap: %v", seed, err)
				return false
			}
		}
		if pm.FramesInUse() != 0 || pm.SwappedPages() != 0 || pm.SwappedBytes() != 0 {
			t.Logf("seed %d: teardown leak: frames=%d swapped=%d bytes=%d",
				seed, pm.FramesInUse(), pm.SwappedPages(), pm.SwappedBytes())
			return false
		}
		if err := l.checkTornDown(); err != nil {
			t.Logf("seed %d: teardown: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
