package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
	"omxsim/internal/vm"
)

// scanHits is the reference the address-indexed dispatch must match: a
// walk over every declared region, selecting the ones invalidation nr acts
// on, in address order (region start, then id).
func scanHits(m *Manager, nr vm.NotifierRange) []RegionID {
	rs := append([]*Region(nil), m.regions...)
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
	var out []RegionID
	for _, r := range rs {
		if !r.overlaps(nr.Start, nr.End) {
			continue
		}
		if r.noPin {
			if nr.Reason == vm.InvalidateUnmap && r.useCount > 0 {
				out = append(out, r.id)
			}
			continue
		}
		if r.pinnedPages == 0 && r.state != statePinning {
			continue
		}
		if nr.Reason == vm.InvalidateUnmap || r.pinnedOverlaps(nr.Start, nr.End) {
			out = append(out, r.id)
		}
	}
	return out
}

// TestInvalidateDispatchMatchesScan drives random declarations (single and
// vectorial, overlapping each other), undeclarations, acquires, releases
// and invalidations of every reason, and requires each invalidation to act
// on exactly the regions a scan of all declared regions selects, in the
// same order, under a pinning and a page-table-translated policy.
func TestInvalidateDispatchMatchesScan(t *testing.T) {
	for k, pol := range []policy.Policy{policy.Overlapped, policy.NoPinning} {
		t.Run(pol.Name(), func(t *testing.T) {
			h := newHarness(t)
			m := h.manager(ManagerConfig{Policy: pol, PinChunkPages: 4})
			rec := trace.NewRecorder(1 << 16)
			m.Trace = rec
			var bufs []vm.Addr
			for i := 0; i < 5; i++ {
				bufs = append(bufs, h.buf(t, 256*1024))
			}
			rng := rand.New(rand.NewSource(int64(k) + 14))
			randSeg := func() Segment {
				base := bufs[rng.Intn(len(bufs))]
				off := rng.Intn(200 * 1024)
				return Segment{Addr: base + vm.Addr(off), Len: 1 + rng.Intn(256*1024-off)}
			}
			var inUse []*Region
			seen := 0
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(10); {
				case op < 3 && len(m.regions) < 24:
					segs := []Segment{randSeg()}
					for rng.Intn(3) == 0 {
						segs = append(segs, randSeg())
					}
					if _, err := m.Declare(segs); err != nil {
						t.Fatalf("step %d: declare: %v", step, err)
					}
				case op < 4 && len(m.regions) > 0:
					r := m.regions[rng.Intn(len(m.regions))]
					if !r.InUse() {
						if err := m.Undeclare(r); err != nil {
							t.Fatalf("step %d: undeclare: %v", step, err)
						}
					}
				case op < 6 && len(m.regions) > 0:
					r := m.regions[rng.Intn(len(m.regions))]
					m.Acquire(r)
					inUse = append(inUse, r)
					if rng.Intn(2) == 0 {
						h.eng.Run() // let the pin finish; otherwise it stays in flight
					}
				case op < 7 && len(inUse) > 0:
					i := rng.Intn(len(inUse))
					m.Release(inUse[i])
					inUse = append(inUse[:i], inUse[i+1:]...)
				default:
					a := vm.PageAlignDown(randSeg().Addr)
					nr := vm.NotifierRange{
						Start:  a,
						End:    a + vm.Addr(1+rng.Intn(16))<<vm.PageShift,
						Reason: vm.InvalidateReason(rng.Intn(5)),
					}
					want := scanHits(m, nr)
					m.InvalidateRange(nr)
					evs := rec.Filter(trace.Invalidate)
					var got []RegionID
					for _, ev := range evs[seen:] {
						got = append(got, RegionID(ev.Seq))
					}
					seen = len(evs)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: %v of [%#x,%#x) acted on regions %v, a scan of all regions selects %v",
							step, nr.Reason, uint64(nr.Start), uint64(nr.End), got, want)
					}
				}
				checkIndex(t, step, &m.byAddr)
				if len(m.byAddr.spans) != len(m.regions) {
					t.Fatalf("step %d: %d indexed regions, %d declared", step, len(m.byAddr.spans), len(m.regions))
				}
			}
			if rec.Count(trace.Invalidate) == 0 {
				t.Fatal("run not representative: no invalidation acted on a region")
			}
		})
	}
}

// TestPinnedLimitEvictsOldestOfEqualRecency pins the tie rule of the LRU
// pinned-page limit: regions pinned at declaration and never acquired are
// equally recent, and the oldest declaration is unpinned first, on every
// run.
func TestPinnedLimitEvictsOldestOfEqualRecency(t *testing.T) {
	for run := 0; run < 20; run++ {
		h := newHarness(t)
		m := h.manager(ManagerConfig{Policy: policy.Permanent, PinnedPageLimit: 32})
		var rs []*Region
		for i := 0; i < 3; i++ {
			r, err := m.Declare([]Segment{{h.buf(t, 64*1024), 64 * 1024}})
			if err != nil {
				t.Fatal(err)
			}
			h.eng.Run()
			rs = append(rs, r)
		}
		if rs[0].Pinned() || !rs[1].Pinned() || !rs[2].Pinned() {
			t.Fatalf("run %d: pinned = %v %v %v, want the oldest region evicted",
				run, rs[0].Pinned(), rs[1].Pinned(), rs[2].Pinned())
		}
	}
}

// TestNotifierDispatchAllocationFree holds notifier dispatch, which reclaim
// runs once per stolen page, to zero allocations: with the manager and the
// cache both listening and dozens of regions declared, an invalidation that
// misses every region, and one that hits a region holding no pins,
// allocate nothing.
func TestNotifierDispatchAllocationFree(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	heap := h.buf(t, 1<<20)
	for i := 0; i < 64; i++ {
		if _, err := m.Declare([]Segment{{heap + vm.Addr(i)*16*1024, 16 * 1024}}); err != nil {
			t.Fatal(err)
		}
	}
	other := h.buf(t, 256*1024)
	h.eng.Go("app", func(p *sim.Proc) {
		r, _ := c.Get(p, []Segment{{other, 256 * 1024}})
		c.Put(r)
	})
	h.eng.Run()
	for _, tc := range []struct {
		name string
		addr vm.Addr
	}{{"miss", other + 8*vm.PageSize}, {"unpinned hit", heap + 40*vm.PageSize}} {
		if n := testing.AllocsPerRun(200, func() {
			if err := h.as.MProtect(tc.addr, vm.PageSize, false); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per notification, want 0", tc.name, n)
		}
	}
}

// TestCacheVectorialEntryInvalidatedThroughIndex covers vectorial entries,
// which the index holds by the hull of their segments: an unmap of a
// buffer lying in the gap between two segments leaves the entry cached,
// an unmap under one of its segments drops it.
func TestCacheVectorialEntryInvalidatedThroughIndex(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	a, gap, b := h.buf(t, 256*1024), h.buf(t, 256*1024), h.buf(t, 256*1024)
	if !(a < gap && gap < b) {
		t.Fatalf("buffers not laid out in address order: %#x %#x %#x", uint64(a), uint64(gap), uint64(b))
	}
	h.eng.Go("app", func(p *sim.Proc) {
		r, err := c.Get(p, []Segment{{a, 64 * 1024}, {b + 128*1024, 64 * 1024}})
		if err != nil {
			t.Error(err)
			return
		}
		c.Put(r)
	})
	h.eng.Run()
	if err := h.al.Free(gap); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if c.Len() != 1 || c.Stats().Invalidations != 0 {
		t.Fatalf("unmap in the gap: Len=%d Invalidations=%d, want the entry kept", c.Len(), c.Stats().Invalidations)
	}
	if err := h.al.Free(b); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if c.Len() != 0 || c.Stats().Invalidations != 1 || m.NumRegions() != 0 {
		t.Fatalf("unmap under a segment: Len=%d Invalidations=%d regions=%d, want the entry dropped and undeclared",
			c.Len(), c.Stats().Invalidations, m.NumRegions())
	}
}

// BenchmarkInvalidateMiss measures the notifier callback reclaim fires for
// a page no declared region covers, at several region counts: with
// address-indexed dispatch the cost stays flat as regions are added.
func BenchmarkInvalidateMiss(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("regions=%d", n), func(b *testing.B) {
			m := newHarness(b).manager(ManagerConfig{Policy: policy.OnDemand})
			for i := 0; i < n; i++ {
				if _, err := m.Declare([]Segment{{vm.Addr(0x10000000 + i*0x10000), 0x8000}}); err != nil {
					b.Fatal(err)
				}
			}
			nr := vm.NotifierRange{Start: 0x9000_0000, End: 0x9000_1000, Reason: vm.InvalidateSwap}
			for b.Loop() {
				m.InvalidateRange(nr)
			}
		})
	}
}
