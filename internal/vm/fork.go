package vm

// Fork clones the address space into a child, copy-on-write style: present,
// unpinned pages become read-only shares of the same frame in both parent
// and child; the first write on either side duplicates the page (firing the
// COW MMU notifier, the invalidation source the paper calls out in §2.1:
// "the application may ... cause the operating system to duplicate a page
// on Copy-on-write").
//
// Pinned pages are copied into the child instead of shared: a device may be
// DMA-ing into the parent's frame, so the parent must keep exclusive
// writable ownership — this mirrors how Linux fork treats pages with
// elevated GUP counts. The copy is taken by reference (copy-on-reference):
// the child frame aliases the parent's contents until either side writes.
func (as *AddressSpace) Fork(childPID int) (*AddressSpace, error) {
	child := NewAddressSpace(childPID, as.phys)
	child.mmapNext = as.mmapNext
	child.vmas = make([]*vma, 0, len(as.vmas))

	for _, v := range as.vmas {
		cv := &vma{start: v.start, end: v.end, base: v.base, dir: make([]*leaf, len(v.dir))}
		child.vmas = append(child.vmas, cv)
		// Only an existing leaf can hold a page to share, so the child
		// gets a leaf where the parent has one.
		for i := 0; i < v.pages(); {
			ptes, n := v.leafRun(i, v.pages(), nil)
			var cptes []pte
			if ptes != nil {
				cptes, _ = cv.leafRun(i, v.pages(), as.phys)
			}
			for j := range ptes {
				p := &ptes[j]
				switch {
				case p.present && p.frame.pinRefs > 0:
					// Child gets its own frame; parent stays writable and pinned.
					f, err := as.allocFrame()
					if err != nil {
						// Roll the half-built child back (Linux tears down the
						// partial mm on fork failure): drop every reference the
						// child's PTEs took so no frames or swap slots leak.
						child.abortFork()
						return nil, err
					}
					f.pg = p.frame.refPage()
					f.mapRefs++
					cptes[j] = pte{frame: f, present: true, writable: true}
					child.installFrame(&cptes[j], v.start+Addr(i+j)<<PageShift)
				case p.present:
					// Share read-only; either side's next write breaks COW.
					p.writable = false
					p.frame.mapRefs++
					cptes[j] = pte{frame: p.frame, present: true, writable: false}
				case p.swapped:
					// The child aliases the swapped contents copy-on-reference.
					// Both sides come back from swap read-only, like the
					// present COW case: the first write after swap-in breaks
					// the share.
					p.swapWritable = false
					cp := pte{swapped: true}
					if p.swapPg != nil {
						cp.swapPg = p.swapPg.get()
					}
					cptes[j] = cp
					as.phys.swapAdded(cp.swapPg)
				}
			}
			i += n
		}
	}
	return child, nil
}

// abortFork releases everything a partially-built child holds, so a fork
// that fails under memory pressure leaks neither frames nor swap slots.
// Parent pages already marked read-only for the aborted share stay
// read-only — conservative but safe: the next parent write takes a
// (spurious) COW break on a now-exclusive frame.
func (child *AddressSpace) abortFork() {
	for _, cv := range child.vmas {
		child.forEachPTE(cv.start, cv.end, child.dropPTE)
	}
	child.vmas = nil
}
