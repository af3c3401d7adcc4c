package core

import "omxsim/internal/vm"

// addrIndex is an interval index over virtual address spans, the structure
// behind address-indexed MMU-notifier dispatch: an invalidation visits the
// spans it overlaps, not every span in the index. Spans are sorted by start
// (ties by region id, so every walk is deterministic), and maxEnd[i] is the
// largest end among spans[0..i]. A query walks left from its right edge and
// stops as soon as maxEnd proves nothing further left can reach it, so it
// costs a binary search plus the spans it touches. Mutations are O(n),
// which suits the few dozen declarations a process holds.
type addrIndex[T comparable] struct {
	spans  []addrSpan[T]
	maxEnd []vm.Addr
}

type addrSpan[T comparable] struct {
	start, end vm.Addr
	id         RegionID
	v          T
}

// search returns the first position whose span sorts at or after
// (start, id); search(a, 0) counts the spans starting before a.
func (x *addrIndex[T]) search(start vm.Addr, id RegionID) int {
	lo, hi := 0, len(x.spans)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		s := &x.spans[mid]
		if s.start < start || (s.start == start && s.id < id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds v over [start, end), ordered among equal starts by id.
func (x *addrIndex[T]) insert(start, end vm.Addr, id RegionID, v T) {
	i := x.search(start, id)
	x.spans = append(x.spans, addrSpan[T]{})
	copy(x.spans[i+1:], x.spans[i:])
	x.spans[i] = addrSpan[T]{start: start, end: end, id: id, v: v}
	x.rebuild(i)
}

// remove deletes v, which was inserted at (start, id).
func (x *addrIndex[T]) remove(start vm.Addr, id RegionID, v T) {
	for i := x.search(start, id); i < len(x.spans) && x.spans[i].start == start && x.spans[i].id == id; i++ {
		if x.spans[i].v == v {
			x.spans = append(x.spans[:i], x.spans[i+1:]...)
			x.rebuild(i)
			return
		}
	}
}

// rebuild refreshes maxEnd from position i on after a mutation there.
func (x *addrIndex[T]) rebuild(i int) {
	x.maxEnd = x.maxEnd[:i]
	var max vm.Addr
	if i > 0 {
		max = x.maxEnd[i-1]
	}
	for _, s := range x.spans[i:] {
		if s.end > max {
			max = s.end
		}
		x.maxEnd = append(x.maxEnd, max)
	}
}

// appendOverlapping appends the values whose spans intersect [a, b) to dst
// in index order (ascending start, then id) and returns the result. It
// allocates only if dst must grow.
func (x *addrIndex[T]) appendOverlapping(dst []T, a, b vm.Addr) []T {
	hi := x.search(b, 0)
	lo := hi
	for lo > 0 && x.maxEnd[lo-1] > a {
		lo--
	}
	for i := lo; i < hi; i++ {
		if x.spans[i].end > a {
			dst = append(dst, x.spans[i].v)
		}
	}
	return dst
}

// covering returns a value accepted by ok whose span covers [a, b),
// preferring the one that starts last, or the zero T and false.
func (x *addrIndex[T]) covering(a, b vm.Addr, ok func(T) bool) (T, bool) {
	for i := x.search(a+1, 0) - 1; i >= 0 && x.maxEnd[i] >= b; i-- {
		if s := &x.spans[i]; s.end >= b && ok(s.v) {
			return s.v, true
		}
	}
	var zero T
	return zero, false
}
