package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// TestPropPressureInterleavings replays 30 random 300-op streams through
// the FuzzPressure body.
func TestPropPressureInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := make([]byte, 8*pressureOps)
			rand.New(rand.NewSource(seed)).Read(ops)
			checkPressure(t, ops)
		})
	}
}

// FuzzPressure drives fault / pin / unpin / fork / munmap / swap /
// migrate / lend / release sequences, hog sweeps and remaps under pins
// against a tight-capacity PhysMem, so direct reclaim and kswapd passes
// fire constantly underneath the workload, and asserts the invariants the
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
//     every page ever made is accounted for with no holder left;
//  5. every swap notifier the parent fires announces a page that then
//     leaves the frame it mapped: a notification for a page that stays
//     would make a driver drop and repin a region for nothing.
//
// Each op is 8 bytes: a kind, a mapping, and three 16-bit arguments. A
// hog sweep writes a whole mapping, or a prefix of it, in one WriteBuf of
// a RepeatPage Buf, as the churn hogs do. A remap unmaps a mapping, pins
// and all, and maps it again, at the same address or elsewhere. A COW
// break under a fork child leaves the child's frame with a reverse map
// that names the parent's PTE, which now maps the copy, and a kswapd pass
// then scans it: invariant 5 catches a reclaim that trusts that stale
// reverse map.
func FuzzPressure(f *testing.F) {
	f.Fuzz(checkPressure)
}

// pressureOps bounds the ops one FuzzPressure input runs.
const pressureOps = 300

func checkPressure(t *testing.T, ops []byte) {
	const (
		nMaps    = 8
		mapPages = 8
		mapBytes = mapPages * PageSize
		capacity = 40 // < nMaps*mapPages: overcommitted by construction
	)
	pm := NewPhysMem(capacity)
	pm.SetWatermarks(0, 0)
	as := NewAddressSpace(1, pm)
	l := newPageLedger(pm)
	pattern := make([]byte, PageSize)
	for i := range pattern {
		pattern[i] = byte(i*7 + 1)
	}
	// The hog sweeps' Buf stays out for the whole run, as a hog's does.
	rep := RepeatPage(pattern, mapPages)
	l.own(&rep)
	// swapped records each page a swap notifier announces on the parent
	// with the frame it maps at that moment; by the end of the op the page
	// must map that frame no more (invariant 5).
	type swapNote struct {
		a   Addr
		ref FrameRef
	}
	var swapped []swapNote
	as.RegisterNotifier(notifierFunc(func(r NotifierRange) {
		if r.Reason != InvalidateSwap {
			return
		}
		for a := r.Start; a < r.End; a += PageSize {
			p := as.lookup(a)
			if p == nil || !p.present {
				t.Fatalf("a swap notifier announced %#x, which maps no frame", a)
			}
			swapped = append(swapped, swapNote{a, p.frame.ref()})
		}
	}))

	type pin struct {
		h      *Pinned
		frames []FrameRef
		mi     int
		off    int // byte offset of the pinned range in the mapping
		length int
		frozen []byte // expected bytes once the mapping dies (nil while alive)
	}
	addrs := make([]Addr, nMaps)
	model := make([][]byte, nMaps)
	for i := range addrs {
		a, err := as.Mmap(mapBytes)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		addrs[i] = a
		model[i] = make([]byte, mapBytes)
	}
	var pins []*pin
	var children []*AddressSpace
	pinnedPages := 0
	type loan struct {
		b    *Buf
		want []byte
	}
	var loans []loan
	release := func(i int) {
		ln := loans[i]
		if !bytes.Equal(ln.b.Bytes(), ln.want) {
			t.Fatal("lent Buf lost its snapshot")
		}
		l.release(ln.b)
		loans = append(loans[:i], loans[i+1:]...)
	}
	checkPin := func(p *pin) {
		for i, fr := range p.h.Frames() {
			if fr != p.frames[i] {
				t.Fatalf("pinned frame %d changed under pressure", i)
			}
		}
		want := p.frozen
		if want == nil {
			want = model[p.mi][p.off : p.off+p.length]
		}
		got := make([]byte, p.length)
		if err := p.h.ReadAt(0, got); err != nil {
			t.Fatalf("pinned read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("pinned data diverged from model")
		}
	}
	pinRange := func(mi, first, count int) {
		h, err := as.PinPages(addrs[mi], first, count)
		if err != nil {
			return // pressure may legitimately defeat the pin
		}
		pins = append(pins, &pin{
			h:      h,
			frames: append([]FrameRef(nil), h.Frames()...),
			mi:     mi,
			off:    first * PageSize,
			length: count * PageSize,
		})
		pinnedPages += count
	}
	// unmap unmaps mapping mi, whose pins freeze at the model's bytes, and
	// maps it again: at the same address when fixed is set, elsewhere
	// otherwise.
	unmap := func(mi int, fixed bool) {
		for _, p := range pins {
			if p.mi == mi && p.frozen == nil {
				p.frozen = append([]byte(nil), model[mi][p.off:p.off+p.length]...)
			}
		}
		if err := as.Munmap(addrs[mi], mapBytes); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		var err error
		if fixed {
			err = as.MmapFixed(addrs[mi], mapBytes)
		} else {
			addrs[mi], err = as.Mmap(mapBytes)
		}
		if err != nil {
			t.Fatalf("remap: %v", err)
		}
		model[mi] = make([]byte, mapBytes)
	}
	dropChild := func(i int) {
		child := children[i]
		for _, v := range append([]*vma(nil), child.vmas...) {
			if err := child.Munmap(v.start, int(v.end-v.start)); err != nil {
				t.Fatalf("child munmap: %v", err)
			}
		}
		children = append(children[:i], children[i+1:]...)
	}

	for step := 0; step+8 <= len(ops) && step < 8*pressureOps; step += 8 {
		op := ops[step : step+8]
		mi := int(op[1]) % nMaps
		a := int(binary.LittleEndian.Uint16(op[2:]))
		b := int(binary.LittleEndian.Uint16(op[4:]))
		c := int(binary.LittleEndian.Uint16(op[6:]))
		switch op[0] % 14 {
		case 0, 1, 2: // write a range (faults, COW breaks, reclaim)
			off := a % (mapBytes - 1)
			n := 1 + b%(mapBytes-off)
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(c) * byte(i*31+1+i>>8) // c == 0 writes zeros
			}
			// Page at a time, updating the model only for pages that
			// landed: with fork children alive most frames are
			// COW-shared and unreclaimable, so an allocation can
			// legitimately fail mid-range — the model must not drift.
			done := 0
			for done < n {
				at := addrs[mi] + Addr(off+done)
				chunk := min(PageSize-int(at&(PageSize-1)), n-done)
				if err := as.Write(at, data[done:done+chunk]); err != nil {
					break // ErrNoMemory under extreme sharing: tolerated
				}
				copy(model[mi][off+done:], data[done:done+chunk])
				done += chunk
			}
		case 3: // read back a whole mapping (swap-ins) and verify
			got := make([]byte, mapBytes)
			if err := as.Read(addrs[mi], got); err != nil {
				continue // swap-in allocation failed under pressure
			}
			if !bytes.Equal(got, model[mi]) {
				t.Fatalf("op %d: mapping %d diverged from model", step/8, mi)
			}
		case 4: // pin a range (bounded so reclaim always has prey)
			if len(pins) >= 4 || pinnedPages+4 > capacity/2 {
				continue
			}
			first := a % (mapPages - 1)
			pinRange(mi, first, min(1+b%4, mapPages-first))
		case 5: // unpin (verifying stability + data first)
			if len(pins) == 0 {
				continue
			}
			i := a % len(pins)
			p := pins[i]
			checkPin(p)
			if err := p.h.Unpin(); err != nil {
				t.Fatalf("unpin: %v", err)
			}
			pinnedPages -= p.length / PageSize
			pins = append(pins[:i], pins[i+1:]...)
		case 6: // fork (children only ever read)
			if len(children) >= 2 {
				dropChild(a % len(children))
			}
			child, err := as.Fork(100 + step/8)
			if err != nil {
				continue // alloc failure under pressure: rolled back
			}
			children = append(children, child)
		case 7: // free a whole mapping, pins and all, and map it again
			unmap(mi, b&1 != 0) // odd b: at the same address
		case 8: // injected swap pressure on top of the emergent kind
			if _, err := as.SwapOut(addrs[mi], mapBytes); err != nil {
				t.Fatalf("swapout: %v", err)
			}
		case 9: // migration plus an explicit kswapd pass
			// Partial migration under allocation failure is fine; contents
			// are preserved either way.
			_, _ = as.Migrate(addrs[mi], mapBytes)
			pm.KswapdPass()
		case 10: // lend a resident range, as a sender's pull path would
			off := a % (mapBytes - 1)
			n := 1 + b%(mapBytes-off)
			if lb, ok := l.lend(as, addrs[mi]+Addr(off), n); ok {
				loans = append(loans, loan{lb, append([]byte(nil), model[mi][off:off+n]...)})
			}
		case 11: // release a loan (verifying its snapshot first)
			if len(loans) > 0 {
				release(a % len(loans))
			}
		case 12: // a hog sweep: the whole mapping, or a prefix, in one WriteBuf
			// A hog runs with no fork children, so every unpinned frame
			// is reclaimable and the sweep cannot run out of memory.
			for len(children) > 0 {
				dropChild(0)
			}
			n := mapBytes
			if b&1 != 0 {
				n = 1 + c%mapBytes
			}
			w := NewBufWriter(&rep)
			if err := as.WriteBuf(addrs[mi], &w, n); err != nil {
				t.Fatalf("op %d: hog sweep: %v", step/8, err)
			}
			for i := range n {
				model[mi][i] = pattern[i%PageSize]
			}
		case 13: // break COW under a fork child, then a kswapd pass
			// The child never touches its frames, so the old frame keeps
			// a reverse map naming the parent's PTE, which maps the copy.
			if len(children) == 0 {
				child, err := as.Fork(100 + step/8)
				if err != nil {
					continue
				}
				children = append(children, child)
			}
			off := a % mapBytes
			if err := as.Write(addrs[mi]+Addr(off), []byte{byte(c)}); err == nil {
				model[mi][off] = byte(c)
			}
			pm.KswapdPass()
		}
		for _, n := range swapped {
			if p := as.lookup(n.a); p != nil && p.present && p.frame.ref() == n.ref {
				t.Fatalf("op %d: a swap notifier announced %#x, but it still maps the same frame", step/8, n.a)
			}
		}
		swapped = swapped[:0]
		handles := make([]*Pinned, len(pins))
		for i, p := range pins {
			handles[i] = p.h
		}
		if err := l.check(append([]*AddressSpace{as}, children...), handles); err != nil {
			t.Fatalf("op %d: %v", step/8, err)
		}
		if pm.FramesInUse() > capacity {
			t.Fatalf("op %d: FramesInUse %d exceeds capacity", step/8, pm.FramesInUse())
		}
	}

	// Teardown: verify and release everything, then the ledger must be
	// exactly empty.
	for len(loans) > 0 {
		release(0)
	}
	l.release(&rep)
	for _, p := range pins {
		checkPin(p)
		if err := p.h.Unpin(); err != nil {
			t.Fatalf("teardown unpin: %v", err)
		}
	}
	for len(children) > 0 {
		dropChild(0)
	}
	for mi := range addrs {
		got := make([]byte, mapBytes)
		if err := as.Read(addrs[mi], got); err != nil || !bytes.Equal(got, model[mi]) {
			t.Fatalf("final verify of mapping %d failed (%v)", mi, err)
		}
		if err := as.Munmap(addrs[mi], mapBytes); err != nil {
			t.Fatalf("final munmap: %v", err)
		}
	}
	if pm.FramesInUse() != 0 || pm.SwappedPages() != 0 || pm.SwappedBytes() != 0 {
		t.Fatalf("teardown leak: frames=%d swapped=%d bytes=%d",
			pm.FramesInUse(), pm.SwappedPages(), pm.SwappedBytes())
	}
	if err := l.checkTornDown(); err != nil {
		t.Fatalf("teardown: %v", err)
	}
}
