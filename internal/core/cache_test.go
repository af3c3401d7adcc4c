package core

import (
	"testing"

	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// cacheOn builds an enabled cache with the given config defaults.
func cacheOn(h *harness, m *Manager, cfg CacheConfig) *Cache {
	cfg.Enabled = true
	return NewCache(h.eng, m, h.core, cfg)
}

func TestCacheHitReusesDeclaration(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 1<<20)
	segs := []Segment{{addr, 1 << 20}}
	var r1, r2 *Region
	h.eng.Go("app", func(p *sim.Proc) {
		var err error
		r1, err = c.Get(p, segs)
		if err != nil {
			t.Errorf("get1: %v", err)
		}
		c.Put(r1)
		r2, err = c.Get(p, segs)
		if err != nil {
			t.Errorf("get2: %v", err)
		}
		c.Put(r2)
	})
	h.eng.Run()
	if r1 != r2 {
		t.Fatal("cache did not reuse the declaration")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
	if m.Stats().Declares != 1 {
		t.Fatalf("driver saw %d declares, want 1", m.Stats().Declares)
	}
}

func TestCacheDisabledDeclaresEachTime(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.PinEachComm})
	c := NewCache(h.eng, m, h.core, CacheConfig{Enabled: false})
	addr := h.buf(t, 256*1024)
	segs := []Segment{{addr, 256 * 1024}}
	h.eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r, err := c.Get(p, segs)
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			done := m.Acquire(r)
			done.Wait(p)
			m.Release(r)
			c.Put(r)
		}
	})
	h.eng.Run()
	if m.Stats().Declares != 3 {
		t.Fatalf("declares = %d, want 3", m.Stats().Declares)
	}
	if m.NumRegions() != 0 {
		t.Fatal("regions leaked in no-cache mode")
	}
}

func TestCacheDistinctBuffersMissSubrangeHits(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	a1 := h.buf(t, 256*1024)
	a2 := h.buf(t, 256*1024)
	h.eng.Go("app", func(p *sim.Proc) {
		r1, _ := c.Get(p, []Segment{{a1, 256 * 1024}})
		r2, _ := c.Get(p, []Segment{{a2, 256 * 1024}})
		// Same addr, shorter length: covered by r1's declaration — a
		// subrange hit served as a view, not a new declaration.
		r3, _ := c.Get(p, []Segment{{a1, 128 * 1024}})
		if r1 == r2 {
			t.Error("distinct buffers shared a region")
		}
		if !r3.IsView() || r3.Base() != r1 {
			t.Errorf("subrange request: IsView=%v Base==r1=%v", r3.IsView(), r3.Base() == r1)
		}
		if r3.Bytes() != 128*1024 {
			t.Errorf("view bytes = %d", r3.Bytes())
		}
		c.Put(r1)
		c.Put(r2)
		c.Put(r3)
	})
	h.eng.Run()
	if st := c.Stats(); st.Misses != 2 || st.SubrangeHits != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses 1 subrange hit", st)
	}
	if m.Stats().Declares != 2 {
		t.Fatalf("declares = %d, want 2", m.Stats().Declares)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{Capacity: 2})
	bufs := []vm.Addr{h.buf(t, 256*1024), h.buf(t, 256*1024), h.buf(t, 256*1024)}
	h.eng.Go("app", func(p *sim.Proc) {
		for _, a := range bufs {
			r, err := c.Get(p, []Segment{{a, 256 * 1024}})
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			c.Put(r)
		}
		// First buffer was evicted; getting it again is a miss.
		r, _ := c.Get(p, []Segment{{bufs[0], 256 * 1024}})
		c.Put(r)
	})
	h.eng.Run()
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite capacity 2 and 3 buffers")
	}
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 misses (re-get after eviction misses)", st)
	}
	if c.Len() > 2 {
		t.Fatalf("cache len %d exceeds capacity", c.Len())
	}
	if m.NumRegions() != c.Len() {
		t.Fatalf("NumRegions %d != cached entries %d: evicted declarations leaked",
			m.NumRegions(), c.Len())
	}
}

func TestCacheReferencedEntriesNotEvicted(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{Capacity: 1})
	a1 := h.buf(t, 256*1024)
	a2 := h.buf(t, 256*1024)
	h.eng.Go("app", func(p *sim.Proc) {
		r1, _ := c.Get(p, []Segment{{a1, 256 * 1024}})
		// r1 still referenced: inserting r2 must not undeclare r1.
		r2, _ := c.Get(p, []Segment{{a2, 256 * 1024}})
		if _, ok := m.Region(r1.ID()); !ok {
			t.Error("referenced region was undeclared")
		}
		c.Put(r1)
		c.Put(r2)
	})
	h.eng.Run()
}

// TestCacheStaleRegionDroppedOnUnmap is the regression test for the
// stale-hit-after-munmap bug: the cache used to keep the entry across a
// free, so a re-malloc at the same address got the declaration over the
// dead mapping back. With the cache registered as an MMU notifier the
// unmap drops the entry, the re-get is a clean miss, and the fresh
// declaration pins the new mapping.
func TestCacheStaleRegionDroppedOnUnmap(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 1<<20)
	segs := []Segment{{addr, 1 << 20}}
	h.eng.Go("app", func(p *sim.Proc) {
		r, _ := c.Get(p, segs)
		m.Acquire(r).Wait(p)
		m.Release(r)
		c.Put(r)
		// Free + realloc (same address).
		if err := h.al.Free(addr); err != nil {
			t.Error(err)
		}
		p.Yield()
		addr2, _ := h.al.Malloc(1 << 20)
		if addr2 != addr {
			t.Error("address not reused")
		}
		r2, err := c.Get(p, segs)
		if err != nil {
			t.Errorf("re-get: %v", err)
			return
		}
		if r2 == r {
			t.Error("stale cache hit: got the declaration over the unmapped buffer back")
		}
		if err := m.Acquire(r2).Wait(p); err != nil {
			t.Errorf("pin of fresh declaration failed: %v", err)
		}
		if !r2.Pinned() {
			t.Error("fresh region not pinned")
		}
		m.Release(r2)
		c.Put(r2)
	})
	h.eng.Run()
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 0 hits 2 misses", st)
	}
	if m.Stats().PinFailures != 0 {
		t.Fatalf("PinFailures = %d: something pinned through the dead mapping", m.Stats().PinFailures)
	}
	// The dead declaration was undeclared; only the fresh one remains.
	if m.NumRegions() != 1 {
		t.Fatalf("NumRegions = %d, want 1", m.NumRegions())
	}
}

// TestCacheHitAfterDriverUnpin is the decoupling in action: a
// mapping-preserving invalidation (mprotect here) makes the driver unpin,
// but the mapping — and therefore the cached declaration — survives; the
// next use is a cache hit and the acquire repins transparently.
func TestCacheHitAfterDriverUnpin(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 1<<20)
	segs := []Segment{{addr, 1 << 20}}
	h.eng.Go("app", func(p *sim.Proc) {
		r, _ := c.Get(p, segs)
		m.Acquire(r).Wait(p)
		m.Release(r)
		c.Put(r)
		// Write-protect: the notifier rips the pins out, the mapping stays.
		if err := h.as.MProtect(addr, 1<<20, false); err != nil {
			t.Error(err)
		}
		if r.Pinned() {
			t.Error("region still pinned after mprotect invalidation")
		}
		r2, _ := c.Get(p, segs)
		if r2 != r {
			t.Error("cache missed after a mapping-preserving invalidation")
		}
		if err := m.Acquire(r2).Wait(p); err != nil {
			t.Errorf("repin failed: %v", err)
		}
		if !r2.Pinned() {
			t.Error("not repinned")
		}
		m.Release(r2)
		c.Put(r2)
	})
	h.eng.Run()
	if m.Stats().Repins != 1 {
		t.Fatalf("Repins = %d, want 1", m.Stats().Repins)
	}
	if st := c.Stats(); st.Hits != 1 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 1 hit 0 invalidations", st)
	}
}

// TestCacheEvictionUndeclaresInsideChargedWork: the undeclare of an
// evicted entry must happen inside the charged kernel work, not
// synchronously at eviction-decision time with a detached cost.
func TestCacheEvictionUndeclaresInsideChargedWork(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{Capacity: 1})
	a1 := h.buf(t, 256*1024)
	a2 := h.buf(t, 256*1024)
	h.eng.Go("app", func(p *sim.Proc) {
		r1, _ := c.Get(p, []Segment{{a1, 256 * 1024}})
		c.Put(r1)
		r2, _ := c.Get(p, []Segment{{a2, 256 * 1024}})
		c.Put(r2)
		// The eviction decision has been made (entry detached) but the
		// undeclare is queued kernel work — the driver must still know
		// the region at this instant.
		if c.Len() != 1 {
			t.Errorf("cache len = %d, want 1", c.Len())
		}
		if m.NumRegions() != 2 {
			t.Errorf("NumRegions = %d at eviction time, want 2 (undeclare not yet executed)",
				m.NumRegions())
		}
	})
	h.eng.Run()
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if m.NumRegions() != 1 {
		t.Fatalf("NumRegions = %d after run, want 1 (victim undeclared)", m.NumRegions())
	}
}

// TestCacheCoalescesInFlightMisses: two threads (cores) missing on the
// same range while the declaration is in flight must produce ONE
// declaration, with the second lookup joining the first — not a second
// Declare whose entry overwrites the first and orphans its refcount.
func TestCacheCoalescesInFlightMisses(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 1<<20)
	segs := []Segment{{addr, 1 << 20}}
	coreB := h.machine.Core(1)
	var r1, r2 *Region
	c.GetAsyncOn(h.core, segs, func(r *Region, err error) { r1 = r })
	c.GetAsyncOn(coreB, segs, func(r *Region, err error) { r2 = r })
	h.eng.Run()
	if r1 == nil || r2 == nil {
		t.Fatal("a waiter never completed")
	}
	if r1 != r2 {
		t.Fatal("coalesced misses got different regions")
	}
	if m.Stats().Declares != 1 {
		t.Fatalf("Declares = %d, want 1 (misses must coalesce)", m.Stats().Declares)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 coalesced", st)
	}
	// Both references drain cleanly; nothing orphaned.
	c.Put(r1)
	c.Put(r2)
	h.eng.Run()
	if m.NumRegions() != 1 || c.Len() != 1 {
		t.Fatalf("NumRegions=%d Len=%d, want 1/1", m.NumRegions(), c.Len())
	}
}

// TestCacheCoalescesSubrangeOntoPending: a lookup covered by an in-flight
// declaration joins it and receives a view.
func TestCacheCoalescesSubrangeOntoPending(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 1<<20)
	coreB := h.machine.Core(1)
	var whole, sub *Region
	c.GetAsyncOn(h.core, []Segment{{addr, 1 << 20}}, func(r *Region, err error) { whole = r })
	c.GetAsyncOn(coreB, []Segment{{addr + 4096, 64 * 1024}}, func(r *Region, err error) { sub = r })
	h.eng.Run()
	if whole == nil || sub == nil {
		t.Fatal("a waiter never completed")
	}
	if !sub.IsView() || sub.Base() != whole {
		t.Fatalf("subrange joiner: IsView=%v base==whole=%v", sub.IsView(), sub.Base() == whole)
	}
	if m.Stats().Declares != 1 {
		t.Fatalf("Declares = %d, want 1", m.Stats().Declares)
	}
	c.Put(whole)
	c.Put(sub)
}

// TestCacheMergeExtendsOverlappingDeclarations: an overlapping miss
// extends the declaration over the union and retires the old entry, and
// later requests anywhere in the union hit.
func TestCacheMergeExtendsOverlappingDeclarations(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 512*1024)
	h.eng.Go("app", func(p *sim.Proc) {
		r1, _ := c.Get(p, []Segment{{addr, 256 * 1024}})
		c.Put(r1)
		// Overlaps [128K, 384K): merged declaration covers [0, 384K).
		r2, _ := c.Get(p, []Segment{{addr + 128*1024, 256 * 1024}})
		if !r2.IsView() {
			t.Error("merge requester should get a view of the union declaration")
		}
		if got := r2.Base().Bytes(); got != 384*1024 {
			t.Errorf("union declaration covers %d bytes, want %d", got, 384*1024)
		}
		c.Put(r2)
		// Anywhere inside the union now hits without declaring.
		r3, _ := c.Get(p, []Segment{{addr + 64*1024, 64 * 1024}})
		if r3.Base() != r2.Base() {
			t.Error("post-merge request missed the union declaration")
		}
		c.Put(r3)
	})
	h.eng.Run()
	st := c.Stats()
	if st.Misses != 2 || st.Merges != 1 || st.SubrangeHits != 1 {
		t.Fatalf("stats = %+v, want 2 misses 1 merge 1 subrange hit", st)
	}
	if m.NumRegions() != 1 {
		t.Fatalf("NumRegions = %d, want 1 (old entry retired and undeclared)", m.NumRegions())
	}
}

// TestCacheByteBudgetEviction: the byte budget evicts idle entries even
// when the entry-count capacity is not exceeded.
func TestCacheByteBudgetEviction(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{ByteCapacity: 1 << 20})
	bufs := []vm.Addr{h.buf(t, 512*1024), h.buf(t, 512*1024), h.buf(t, 512*1024)}
	h.eng.Go("app", func(p *sim.Proc) {
		for _, a := range bufs {
			r, _ := c.Get(p, []Segment{{a, 512 * 1024}})
			c.Put(r)
		}
	})
	h.eng.Run()
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite byte budget pressure")
	}
	if c.Bytes() > 1<<20 {
		t.Fatalf("cached bytes %d exceed budget %d", c.Bytes(), 1<<20)
	}
}

// TestCacheSizeWeightedEvictor: under "size" eviction the largest idle
// entry goes first even if it is the most recently used.
func TestCacheSizeWeightedEvictor(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{ByteCapacity: 1 << 20, Eviction: "size"})
	small := h.buf(t, 128*1024)
	big := h.buf(t, 768*1024)
	mid := h.buf(t, 256*1024)
	h.eng.Go("app", func(p *sim.Proc) {
		r1, _ := c.Get(p, []Segment{{small, 128 * 1024}})
		c.Put(r1)
		r2, _ := c.Get(p, []Segment{{big, 768 * 1024}}) // most recent, but biggest
		c.Put(r2)
		r3, _ := c.Get(p, []Segment{{mid, 256 * 1024}}) // pushes bytes to 1152K > 1M
		c.Put(r3)
		// The big entry must be the victim; small and mid still hit.
		r4, _ := c.Get(p, []Segment{{small, 128 * 1024}})
		c.Put(r4)
		r5, _ := c.Get(p, []Segment{{mid, 256 * 1024}})
		c.Put(r5)
	})
	h.eng.Run()
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Hits != 2 {
		t.Fatalf("Hits = %d, want 2 (small+mid survived, big evicted)", st.Hits)
	}
}

// TestCachePendingInvalidatedNotCached: an unmap racing an in-flight
// declaration poisons it — the waiters still get their (doomed) region,
// but it is never cached, and a later request re-declares.
func TestCachePendingInvalidatedNotCached(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 1<<20)
	segs := []Segment{{addr, 1 << 20}}
	var r1 *Region
	c.GetAsyncOn(h.core, segs, func(r *Region, err error) { r1 = r })
	// The free lands after the lookup created the pending declaration but
	// while the declare cost is still being charged (lookup takes 150ns,
	// the declare another ~440ns).
	h.eng.After(300*sim.Nanosecond, func() {
		if err := h.al.Free(addr); err != nil {
			t.Error(err)
		}
	})
	h.eng.Run()
	if r1 == nil {
		t.Fatal("waiter never completed")
	}
	if c.Len() != 0 {
		t.Fatalf("poisoned declaration was cached (len=%d)", c.Len())
	}
	c.Put(r1)
	h.eng.Run()
	if m.NumRegions() != 0 {
		t.Fatalf("NumRegions = %d, want 0 (poisoned declaration dropped at last Put)", m.NumRegions())
	}
}

// TestCacheViewAccessMapsOffsets: data written through a view lands at
// the right offset of the parent declaration.
func TestCacheViewAccessMapsOffsets(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 1<<20)
	const viewOff = 256 * 1024
	h.eng.Go("app", func(p *sim.Proc) {
		whole, _ := c.Get(p, []Segment{{addr, 1 << 20}})
		view, _ := c.Get(p, []Segment{{addr + viewOff, 128 * 1024}})
		if err := m.Acquire(view).Wait(p); err != nil {
			t.Errorf("acquire view: %v", err)
			return
		}
		if !view.Pinned() || view.PinnedPages() != view.Pages() {
			t.Errorf("view not pinned: pinned=%v pages=%d/%d", view.Pinned(), view.PinnedPages(), view.Pages())
		}
		src := []byte("through-the-view")
		if err := writeAt(view, 100, src); err != nil {
			t.Errorf("view write: %v", err)
		}
		dst := make([]byte, len(src))
		if err := readAt(whole, viewOff+100, dst); err != nil {
			t.Errorf("parent read: %v", err)
		}
		if string(dst) != string(src) {
			t.Errorf("view offset mapping wrong: %q != %q", dst, src)
		}
		if !view.Ready(0, 128*1024) || view.Ready(-1, 10) || view.Ready(0, 128*1024+1) {
			t.Error("view Ready bounds wrong")
		}
		m.Release(view)
		c.Put(view)
		c.Put(whole)
	})
	h.eng.Run()
}

func TestCacheCostsCharged(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 256*1024)
	segs := []Segment{{addr, 256 * 1024}}
	h.eng.Go("app", func(p *sim.Proc) {
		r, _ := c.Get(p, segs)
		c.Put(r)
	})
	h.eng.Run()
	if h.core.BusyTime(0)+h.core.BusyTime(1)+h.core.BusyTime(2) == 0 {
		t.Fatal("cache charged no CPU time")
	}
}

// TestCachePinAheadReArmsAfterInvalidation: under a PinAtDeclare backend
// the fresh declaration after an unmap-invalidation starts a new
// speculative pin — the RequiresCache interplay the pin-ahead policy
// depends on.
func TestCachePinAheadReArmsAfterInvalidation(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.PinAhead})
	c := cacheOn(h, m, CacheConfig{})
	addr := h.buf(t, 512*1024)
	segs := []Segment{{addr, 512 * 1024}}
	h.eng.Go("app", func(p *sim.Proc) {
		r, _ := c.Get(p, segs) // declare-time speculative pin
		c.Put(r)
		p.Sleep(sim.Millisecond) // let the speculation finish
		if err := h.al.Free(addr); err != nil {
			t.Error(err)
		}
		p.Yield()
		if _, err := h.al.Malloc(512 * 1024); err != nil {
			t.Error(err)
		}
		r2, _ := c.Get(p, segs) // fresh declaration re-arms the speculation
		if r2 == r {
			t.Error("stale declaration after unmap under pin-ahead")
		}
		c.Put(r2)
		p.Sleep(sim.Millisecond)
	})
	h.eng.Run()
	if got := m.Stats().SpeculativePins; got != 2 {
		t.Fatalf("SpeculativePins = %d, want 2 (re-armed after invalidation)", got)
	}
}

func TestKeyDeterminism(t *testing.T) {
	segs := []Segment{{0x1000, 50}, {0x2000, 60}}
	if key(segs) != key([]Segment{{0x1000, 50}, {0x2000, 60}}) {
		t.Fatal("identical segment lists produced different keys")
	}
	if key(segs) == key([]Segment{{0x2000, 60}, {0x1000, 50}}) {
		t.Fatal("order-swapped segments collided")
	}
	if key(segs) == key(segs[:1]) {
		t.Fatal("prefix collided")
	}
}
