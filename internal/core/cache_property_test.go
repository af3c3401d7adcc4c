package core

import (
	"math/rand"
	"sort"
	"testing"

	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// indexHarness drives the interval index (attach/detach/covering/
// overlapping) directly with synthetic entries, mirroring every operation
// into a brute-force oracle.
type indexHarness struct {
	c      *Cache
	oracle []*cacheEntry
	nextID RegionID
}

func newIndexHarness(t *testing.T) *indexHarness {
	t.Helper()
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	// The index is pure data structure; no engine time is needed.
	return &indexHarness{c: cacheOn(h, m, CacheConfig{Capacity: 1 << 20})}
}

func (ih *indexHarness) insert(start vm.Addr, length int) *cacheEntry {
	ih.nextID++
	e := &cacheEntry{
		key:      key([]Segment{{start, length}}),
		region:   &Region{id: ih.nextID, segs: []Segment{{start, length}}},
		segStart: start,
		segEnd:   start + vm.Addr(length),
		single:   true,
		bytes:    length,
	}
	ih.c.attach(e)
	ih.oracle = append(ih.oracle, e)
	return e
}

func (ih *indexHarness) remove(e *cacheEntry) {
	ih.c.detach(e)
	for i, x := range ih.oracle {
		if x == e {
			ih.oracle = append(ih.oracle[:i], ih.oracle[i+1:]...)
			return
		}
	}
}

func (ih *indexHarness) oracleCovering(a vm.Addr, l int) []*cacheEntry {
	var out []*cacheEntry
	for _, e := range ih.oracle {
		if e.segStart <= a && a+vm.Addr(l) <= e.segEnd {
			out = append(out, e)
		}
	}
	return out
}

func (ih *indexHarness) oracleOverlapping(a, b vm.Addr) []*cacheEntry {
	var out []*cacheEntry
	for _, e := range ih.oracle {
		if e.segStart < b && a < e.segEnd {
			out = append(out, e)
		}
	}
	return out
}

func ids(es []*cacheEntry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = int(e.region.id)
	}
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIntervalIndexProperty compares the augmented sorted interval index
// against a brute-force oracle over thousands of random insert, remove,
// coverage, and overlap operations — including entries that overlap each
// other and share start addresses.
func TestIntervalIndexProperty(t *testing.T) {
	ih := newIndexHarness(t)
	rng := rand.New(rand.NewSource(7))
	const space = 1 << 22 // 4 MiB of address space, page-ish granularity
	randRange := func() (vm.Addr, int) {
		start := vm.Addr(rng.Intn(space-8192)) &^ 0xff
		l := (1 + rng.Intn((space-int(start))/256)) * 256
		return start, l
	}

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			if len(ih.oracle) < 64 {
				s, l := randRange()
				ih.insert(s, l)
			}
		case op < 6: // remove
			if len(ih.oracle) > 0 {
				ih.remove(ih.oracle[rng.Intn(len(ih.oracle))])
			}
		case op < 8: // coverage query
			a, l := randRange()
			got := ih.c.covering(a, l)
			want := ih.oracleCovering(a, l)
			if (got == nil) != (len(want) == 0) {
				t.Fatalf("step %d: covering(%#x,%d) = %v, oracle found %d candidates",
					step, uint64(a), l, got, len(want))
			}
			if got != nil && !(got.segStart <= a && a+vm.Addr(l) <= got.segEnd) {
				t.Fatalf("step %d: covering returned non-covering entry [%#x,%#x) for [%#x,+%d)",
					step, uint64(got.segStart), uint64(got.segEnd), uint64(a), l)
			}
		default: // overlap query
			a, l := randRange()
			got := ids(ih.c.overlapping(a, a+vm.Addr(l)))
			want := ids(ih.oracleOverlapping(a, a+vm.Addr(l)))
			if !equalIDs(got, want) {
				t.Fatalf("step %d: overlapping(%#x,+%d) = %v, oracle %v", step, uint64(a), l, got, want)
			}
		}
		// Structural invariants after every mutation.
		checkIndex(t, step, &ih.c.idx)
	}
}

// TestIntervalIndexOverlappingOrder pins that overlapping returns entries
// in ascending start order (merge relies on scanning them predictably).
func TestIntervalIndexOverlappingOrder(t *testing.T) {
	ih := newIndexHarness(t)
	ih.insert(0x3000, 0x1000)
	ih.insert(0x1000, 0x1000)
	ih.insert(0x2000, 0x2000)
	got := ih.c.overlapping(0x0, 0x10000)
	if len(got) != 3 {
		t.Fatalf("got %d entries", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].segStart > got[i].segStart {
			t.Fatalf("overlapping not in ascending start order")
		}
	}
}

// TestCacheDeterministicEviction runs the same eviction-heavy workload
// twice and requires identical stats — victim selection must not depend
// on map iteration order.
func TestCacheDeterministicEviction(t *testing.T) {
	run := func() (CacheStats, Stats) {
		h := newHarness(t)
		m := h.manager(ManagerConfig{Policy: policy.OnDemand})
		c := cacheOn(h, m, CacheConfig{Capacity: 3})
		var bufs []vm.Addr
		for i := 0; i < 8; i++ {
			bufs = append(bufs, h.buf(t, 256*1024))
		}
		h.eng.Go("app", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				for _, a := range bufs {
					r, _ := c.Get(p, []Segment{{a, 256 * 1024}})
					c.Put(r)
				}
			}
		})
		h.eng.Run()
		return c.Stats(), m.Stats()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("nondeterministic eviction:\n run1 cache=%+v mgr=%+v\n run2 cache=%+v mgr=%+v", c1, m1, c2, m2)
	}
}
