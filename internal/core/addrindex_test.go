package core

import (
	"sort"
	"testing"

	"omxsim/internal/vm"
)

// checkIndex verifies the index's structure: spans sorted by (start, id)
// and maxEnd the running maximum of their ends.
func checkIndex[T comparable](t *testing.T, step int, x *addrIndex[T]) {
	t.Helper()
	if len(x.spans) != len(x.maxEnd) {
		t.Fatalf("step %d: %d spans but %d maxEnd entries", step, len(x.spans), len(x.maxEnd))
	}
	var max vm.Addr
	for i, s := range x.spans {
		if i > 0 {
			p := x.spans[i-1]
			if p.start > s.start || (p.start == s.start && p.id > s.id) {
				t.Fatalf("step %d: spans %d and %d out of order", step, i-1, i)
			}
		}
		if s.end > max {
			max = s.end
		}
		if x.maxEnd[i] != max {
			t.Fatalf("step %d: maxEnd[%d] = %#x, want %#x", step, i, uint64(x.maxEnd[i]), uint64(max))
		}
	}
}

// FuzzAddrIndex drives the index with byte-coded insert, remove and query
// operations and compares every query with a scan of all spans: overlap
// results must match in content and order, coverage must return the
// accepted covering span that starts last. Addresses come from a small
// space, so spans overlap, nest and share starts.
func FuzzAddrIndex(f *testing.F) {
	f.Add([]byte{0, 1, 4, 0, 0, 1, 2, 0, 3, 0, 31, 0, 2, 0, 0, 0, 3, 2, 2, 0})
	f.Add([]byte{0, 5, 5, 0, 1, 5, 9, 0, 0, 5, 1, 0, 3, 5, 0, 0, 3, 6, 1, 0, 2, 0, 0, 1, 3, 0, 31, 0})
	f.Add([]byte{1, 0, 31, 0, 0, 10, 2, 0, 0, 20, 2, 0, 3, 11, 0, 0, 3, 21, 0, 0, 2, 0, 0, 0, 3, 11, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var x addrIndex[*Region]
		var all []addrSpan[*Region] // the oracle, in insertion order
		nextID := RegionID(0)
		for step := 0; step+4 <= len(ops); step += 4 {
			op := ops[step : step+4]
			start := vm.Addr(op[1]%32) << 8
			end := start + vm.Addr(1+op[2]%32)<<8
			switch op[0] % 4 {
			case 0, 1:
				if len(all) >= 48 {
					continue
				}
				nextID++
				r := &Region{id: nextID}
				x.insert(start, end, r.id, r)
				all = append(all, addrSpan[*Region]{start: start, end: end, id: r.id, v: r})
			case 2:
				if len(all) == 0 {
					continue
				}
				i := int(op[3]) % len(all)
				s := all[i]
				x.remove(s.start, s.id, s.v)
				all = append(all[:i], all[i+1:]...)
				if len(x.spans) != len(all) {
					t.Fatalf("step %d: %d spans after remove, want %d", step, len(x.spans), len(all))
				}
			case 3:
				sorted := append([]addrSpan[*Region](nil), all...)
				sort.Slice(sorted, func(i, j int) bool {
					if sorted[i].start != sorted[j].start {
						return sorted[i].start < sorted[j].start
					}
					return sorted[i].id < sorted[j].id
				})
				var want []*Region
				for _, s := range sorted {
					if s.start < end && start < s.end {
						want = append(want, s.v)
					}
				}
				got := x.appendOverlapping(nil, start, end)
				if len(got) != len(want) {
					t.Fatalf("step %d: overlapping [%#x,%#x) found %d spans, want %d",
						step, uint64(start), uint64(end), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("step %d: overlapping result %d is region %d, want %d",
							step, i, got[i].id, want[i].id)
					}
				}
				odd := func(r *Region) bool { return r.id%2 == 1 }
				var wantCover *Region
				for _, s := range sorted {
					if s.start <= start && end <= s.end && odd(s.v) {
						wantCover = s.v
					}
				}
				if gotCover, _ := x.covering(start, end, odd); gotCover != wantCover {
					t.Fatalf("step %d: covering [%#x,%#x) = %v, want %v",
						step, uint64(start), uint64(end), gotCover, wantCover)
				}
			}
			checkIndex(t, step, &x)
		}
	})
}
