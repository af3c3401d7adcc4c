package core

import (
	"math/rand"
	"testing"

	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// TestCacheContractRandomized drives a long random interleaving of
// Get/Put, subrange requests, evict pressure, and free/realloc churn
// through the cache and checks the contract at quiescence:
//
//   - every lookup lands in exactly one of hit/subrange/miss/coalesced;
//   - references balance: once every Get is Put, every surviving
//     declaration is an attached cache entry (nothing detached leaks);
//   - the byte budget holds once nothing is referenced;
//   - the cache never returns a declaration over an unmapped range.
func TestCacheContractRandomized(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{Capacity: 8, ByteCapacity: 4 << 20})
	rng := rand.New(rand.NewSource(42))

	const nbufs = 5
	const bufSize = 1 << 20
	bufs := make([]vm.Addr, nbufs)
	for i := range bufs {
		bufs[i] = h.buf(t, bufSize)
	}

	gets := 0
	h.eng.Go("app", func(p *sim.Proc) {
		type held struct {
			r   *Region
			buf int
		}
		var out []held
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // Get a random subrange of a random buffer
				b := rng.Intn(nbufs)
				off := rng.Intn(bufSize - 4096)
				l := 1 + rng.Intn(bufSize-off-1)
				r, err := c.Get(p, []Segment{{bufs[b] + vm.Addr(off), l}})
				if err != nil {
					t.Errorf("step %d: get: %v", step, err)
					return
				}
				gets++
				out = append(out, held{r, b})
			case op < 8: // Put a random outstanding region
				if len(out) == 0 {
					continue
				}
				i := rng.Intn(len(out))
				c.Put(out[i].r)
				out = append(out[:i], out[i+1:]...)
			default: // free + re-malloc a buffer (the churn case)
				b := rng.Intn(nbufs)
				// Drop outstanding references on it first so the entry
				// detach path and the in-use path both get exercised over
				// the run (some frees land with refs held).
				if rng.Intn(2) == 0 {
					kept := out[:0]
					for _, o := range out {
						if o.buf == b {
							c.Put(o.r)
						} else {
							kept = append(kept, o)
						}
					}
					out = kept
				}
				if err := h.al.Free(bufs[b]); err != nil {
					t.Errorf("step %d: free: %v", step, err)
					return
				}
				p.Yield()
				a, err := h.al.Malloc(bufSize)
				if err != nil {
					t.Errorf("step %d: malloc: %v", step, err)
					return
				}
				bufs[b] = a
			}
		}
		for _, o := range out {
			c.Put(o.r)
		}
	})
	h.eng.Run()

	st := c.Stats()
	if got := st.Lookups(); got != uint64(gets) {
		t.Errorf("lookup accounting: hits %d + subrange %d + misses %d + coalesced %d = %d, want %d gets",
			st.Hits, st.SubrangeHits, st.Misses, st.Coalesced, got, gets)
	}
	if m.NumRegions() != c.Len() {
		t.Errorf("ref balance: %d declared regions vs %d cached entries — detached declarations leaked",
			m.NumRegions(), c.Len())
	}
	if c.Bytes() > 4<<20 {
		t.Errorf("byte budget violated at quiescence: %d > %d", c.Bytes(), 4<<20)
	}
	// Every surviving cached declaration must still name a live mapping —
	// a cached entry over an unmapped range is exactly the staleness bug.
	for _, e := range c.entries {
		for _, s := range e.region.Segments() {
			if !h.as.Mapped(s.Addr, s.Len) {
				t.Errorf("stale cache entry over unmapped range [%#x,+%d)", uint64(s.Addr), s.Len)
			}
		}
	}
	if st.Misses == 0 || st.Evictions == 0 || st.Invalidations == 0 {
		t.Errorf("run not representative: stats = %+v", st)
	}
}

// TestCacheContractStatsConsistent checks the per-entry invariants the
// eviction loop relies on: attached bytes equal the sum of entries, and
// no attached entry is marked detached.
func TestCacheContractStatsConsistent(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.OnDemand})
	c := cacheOn(h, m, CacheConfig{Capacity: 4})
	bufs := []vm.Addr{h.buf(t, 256*1024), h.buf(t, 512*1024), h.buf(t, 1<<20)}
	h.eng.Go("app", func(p *sim.Proc) {
		for round := 0; round < 3; round++ {
			for _, a := range bufs {
				r, _ := c.Get(p, []Segment{{a, 128 * 1024}})
				c.Put(r)
			}
		}
	})
	h.eng.Run()
	sum := 0
	for _, e := range c.entries {
		if e.detached {
			t.Errorf("attached entry marked detached")
		}
		sum += e.bytes
	}
	if sum != c.Bytes() {
		t.Errorf("bytes accounting: sum of entries %d != tracked %d", sum, c.Bytes())
	}
	if len(c.byRegion) < len(c.entries) {
		t.Errorf("byRegion %d < entries %d", len(c.byRegion), len(c.entries))
	}
}
