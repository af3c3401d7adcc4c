package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"omxsim/internal/cpu"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
	"omxsim/internal/vm"
)

// User-space cost constants (paper §4.2: "the overhead of the pinning cache
// is higher since it involves looking up a region in the user-space cache
// and checking whether it is already pinned in the driver. But it also
// remains negligible against the transfer time of large messages").
const (
	// CacheLookupCost is the user-space interval lookup per request.
	CacheLookupCost = 150 * sim.Nanosecond
	// DeclareBaseCost is the syscall + driver setup to declare a region.
	DeclareBaseCost = 400 * sim.Nanosecond
	// DeclarePerSegCost is the added cost per segment passed to the kernel.
	DeclarePerSegCost = 40 * sim.Nanosecond
	// UndeclareCost is the syscall to drop a declaration.
	UndeclareCost = 300 * sim.Nanosecond
)

// CacheStats counts user-space cache activity. A `stat` tag names the
// field's per-cell scenario metric (stats.<name>, summed over processes).
type CacheStats struct {
	// Hits are lookups satisfied by an entry with a byte-identical
	// segment list.
	Hits uint64 `stat:"cache_hits"`
	// SubrangeHits are lookups fully covered by a larger cached
	// declaration: the request is served as an offset view of the cached
	// region, with no new declaration.
	SubrangeHits uint64 `stat:"cache_subrange_hits"`
	// Misses are lookups that had to start a new declaration.
	Misses uint64 `stat:"cache_misses"`
	// Coalesced are lookups that joined a declaration already in flight
	// for a covering range instead of declaring again.
	Coalesced uint64 `stat:"cache_coalesced"`
	// Merges counts miss declarations that extended over one or more
	// overlapping cached entries (the old entries are retired).
	Merges uint64 `stat:"cache_merges"`
	// Evictions counts entries retired by capacity or byte-budget
	// pressure.
	Evictions uint64 `stat:"cache_evictions"`
	// Invalidations counts entries (and in-flight declarations) dropped
	// because an MMU-notifier invalidation overlapped them.
	Invalidations uint64 `stat:"cache_invalidations"`
	// BytesCached is the current total of cached declaration bytes.
	BytesCached int `stat:"cache_bytes"`
}

// Lookups returns the total number of cache lookups (every Get lands in
// exactly one of the four counters).
func (s CacheStats) Lookups() uint64 { return s.Hits + s.SubrangeHits + s.Misses + s.Coalesced }

// CacheConfig tunes the user-space region cache.
type CacheConfig struct {
	// Enabled turns the cache on; when false the cache degrades to
	// declare/undeclare per communication (the classical baseline).
	Enabled bool
	// Capacity bounds the number of cached declarations (0 = 64).
	Capacity int
	// ByteCapacity bounds the total bytes covered by cached declarations
	// (0 = unlimited). Referenced entries never count as evictable, so
	// the budget can be exceeded while everything is in use.
	ByteCapacity int
	// Eviction names the eviction policy: "lru" (default) or "size"
	// (largest idle entry first, ties broken least-recently-used).
	Eviction string
}

// Evictor ranks eviction candidates; see EvictorNames.
type Evictor interface {
	// Better reports whether a is a better victim than b. Exact ties are
	// broken deterministically by the cache (oldest region id wins) so
	// simulation runs stay reproducible.
	Better(a, b EvictCandidate) bool
}

// EvictCandidate is the per-entry view an Evictor ranks on.
type EvictCandidate struct {
	// Bytes is the entry's declared byte length.
	Bytes int
	// LastUse is the cache tick of the entry's most recent hit.
	LastUse int64
}

type lruEvictor struct{}

func (lruEvictor) Better(a, b EvictCandidate) bool { return a.LastUse < b.LastUse }

type sizeEvictor struct{}

func (sizeEvictor) Better(a, b EvictCandidate) bool {
	if a.Bytes != b.Bytes {
		return a.Bytes > b.Bytes
	}
	return a.LastUse < b.LastUse
}

// evictors maps each eviction-policy name to its Evictor.
var evictors = map[string]Evictor{
	"lru":  lruEvictor{},
	"size": sizeEvictor{},
}

// EvictorByName resolves an eviction policy ("" selects LRU).
func EvictorByName(name string) (Evictor, bool) {
	if name == "" {
		name = "lru"
	}
	e, ok := evictors[name]
	return e, ok
}

// EvictorNames returns the eviction-policy names, sorted.
func EvictorNames() []string {
	names := make([]string, 0, len(evictors))
	for n := range evictors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Cache is the user-space region cache of paper §3.2, grown into a
// production-grade registration cache:
//
//   - Declarations are interval-indexed per address space, so a request
//     fully covered by an existing declaration is a subrange hit (served
//     as an offset view, no syscall) and a request overlapping existing
//     declarations extends them into one merged declaration.
//   - The cache registers as an MMU notifier: an unmap drops every cached
//     entry it overlaps, so a munmap + re-malloc at the same address can
//     never return a declaration over the dead mapping (the staleness
//     problem registration caches are notorious for). Mapping-preserving
//     invalidations (COW, swap, migrate, mprotect) leave entries cached:
//     the driver repins transparently, which is the paper's decoupling.
//   - Concurrent misses for a covered range coalesce onto one in-flight
//     declaration instead of declaring twice.
//   - Capacity is bounded by entry count and byte budget with a choice
//     of eviction policy (LRU, size-weighted).
//
// It still deliberately knows nothing about pinning: the driver may unpin
// and repin a cached region at any time without telling user space.
type Cache struct {
	eng     *sim.Engine
	mgr     *Manager
	core    *cpu.Core
	cfg     CacheConfig
	evictor Evictor

	// entries holds attached entries by exact segment-list key.
	entries map[string]*cacheEntry
	// byRegion tracks every live entry — attached or detached with
	// outstanding references — by its base region, for Put.
	byRegion map[*Region]*cacheEntry
	// idx is the interval index over every attached entry's byte span:
	// lookups use its single-segment entries, invalidations all of them.
	idx addrIndex[*cacheEntry]
	// pending are in-flight declarations by declared-segment key;
	// pendIdx lists the single-segment ones for coverage joins.
	pending map[string]*pendingDecl
	pendIdx []*pendingDecl

	bytes  int // attached declaration bytes
	tick   int64
	stats  CacheStats
	closed bool
}

type cacheEntry struct {
	key    string
	region *Region
	// segStart/segEnd are the byte span of the segments: exact for
	// single-segment entries (single=true), the hull for vectorial ones,
	// which lookups match by exact key only.
	segStart, segEnd vm.Addr
	single           bool
	bytes            int
	refs             int
	lastUse          int64
	// detached entries have been removed from the index (invalidated,
	// evicted, or merged away) but still have outstanding references;
	// the last Put undeclares them.
	detached bool
}

type pendingDecl struct {
	key              string
	segs             []Segment
	segStart, segEnd vm.Addr
	single           bool
	// invalidated is set when an unmap overlaps the range while the
	// declaration is still in flight: the result must not be cached.
	invalidated bool
	waiters     []pendingWaiter
}

type pendingWaiter struct {
	segs []Segment
	done func(*Region, error)
}

// NewCache builds a cache in front of mgr. Costs are charged on core.
// When enabled it registers as an MMU notifier on the manager's address
// space (after the manager, so the driver unpins before the cache drops
// declarations); Close detaches it. An unknown CacheConfig.Eviction name
// panics — validate with EvictorByName first where the name is user input.
func NewCache(eng *sim.Engine, mgr *Manager, core *cpu.Core, cfg CacheConfig) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	ev, ok := EvictorByName(cfg.Eviction)
	if !ok {
		panic(fmt.Sprintf("core: unknown cache eviction policy %q (have %v)", cfg.Eviction, EvictorNames()))
	}
	c := &Cache{
		eng:      eng,
		mgr:      mgr,
		core:     core,
		cfg:      cfg,
		evictor:  ev,
		entries:  make(map[string]*cacheEntry),
		byRegion: make(map[*Region]*cacheEntry),
		pending:  make(map[string]*pendingDecl),
	}
	if cfg.Enabled {
		mgr.as.RegisterNotifier(c)
	}
	return c
}

// Close detaches the cache from the address space's MMU notifiers. Cached
// declarations are not undeclared here — Manager.Close drops them with
// everything else.
func (c *Cache) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.cfg.Enabled {
		c.mgr.as.UnregisterNotifier(c)
	}
}

// Enabled reports whether caching is on.
func (c *Cache) Enabled() bool { return c.cfg.Enabled }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	s := c.stats
	s.BytesCached = c.bytes
	return s
}

// Len reports the number of cached (attached) declarations.
func (c *Cache) Len() int { return len(c.entries) }

// Bytes reports the total bytes covered by cached declarations.
func (c *Cache) Bytes() int { return c.bytes }

// key serializes a segment list. Two requests share an exact entry iff
// their segment lists are byte-identical (same addresses AND lengths);
// single-segment requests additionally match any covering entry through
// the interval index.
func key(segs []Segment) string {
	buf := make([]byte, 0, len(segs)*16)
	var tmp [16]byte
	for _, s := range segs {
		binary.LittleEndian.PutUint64(tmp[0:8], uint64(s.Addr))
		binary.LittleEndian.PutUint64(tmp[8:16], uint64(s.Len))
		buf = append(buf, tmp[:]...)
	}
	return string(buf)
}

// GetAsync resolves a segment list to a declared region, charging lookup
// (and declaration, on miss) costs on the cache's default core; done
// receives the region — possibly an offset view of a larger cached
// declaration. It is callable from event context. The caller must balance
// with Put.
func (c *Cache) GetAsync(segs []Segment, done func(*Region, error)) {
	c.GetAsyncOn(c.core, segs, done)
}

// GetAsyncOn is GetAsync with the costs charged on the calling thread's
// core: the cache is shared per process, but each endpoint's thread pays
// for its own lookup and declare syscalls. Lookups from different cores
// for the same range while a declaration is in flight coalesce onto it.
func (c *Cache) GetAsyncOn(caller *cpu.Core, segs []Segment, done func(*Region, error)) {
	c.tick++
	tick := c.tick
	if !c.cfg.Enabled {
		cost := DeclareBaseCost + sim.Duration(len(segs))*DeclarePerSegCost
		caller.Submit(cpu.Kernel, cost, func() {
			r, err := c.mgr.Declare(segs)
			done(r, err)
		})
		return
	}
	caller.Submit(cpu.User, CacheLookupCost, func() {
		c.lookup(caller, segs, tick, done)
	})
}

// lookup runs the cache decision tree in event context after the lookup
// cost was charged.
func (c *Cache) lookup(caller *cpu.Core, segs []Segment, tick int64, done func(*Region, error)) {
	k := key(segs)
	// 1. Exact segment-list hit.
	if e, ok := c.entries[k]; ok {
		c.stats.Hits++
		c.emit(trace.CacheHit, uint64(e.region.ID()), 0)
		e.refs++
		e.lastUse = tick
		done(e.region, nil)
		return
	}
	single := len(segs) == 1
	// 2. Subrange hit: a single-segment request fully covered by a larger
	// cached declaration is served as an offset view of it.
	if single {
		a, l := segs[0].Addr, segs[0].Len
		if e := c.covering(a, l); e != nil {
			c.stats.SubrangeHits++
			c.emit(trace.CacheHit, uint64(e.region.ID()), 1)
			e.refs++
			e.lastUse = tick
			done(newSubRegion(e.region, segs[0]), nil)
			return
		}
	}
	// 3. Coalesce with a declaration already in flight for a covering
	// range: join its waiter list instead of declaring again.
	if p := c.pendingFor(k, segs, single); p != nil {
		c.stats.Coalesced++
		p.waiters = append(p.waiters, pendingWaiter{segs: segs, done: done})
		return
	}
	// 4. Miss: declare. A single-segment request overlapping cached
	// entries extends the declaration over their union and retires them,
	// so the range converges to one declaration instead of fragmenting.
	c.stats.Misses++
	c.emit(trace.CacheMiss, 0, 0)
	declSegs := segs
	if single {
		a, l := segs[0].Addr, segs[0].Len
		if ov := c.overlapping(a, a+vm.Addr(l)); len(ov) > 0 {
			lo, hi := a, a+vm.Addr(l)
			for _, e := range ov {
				if e.segStart < lo {
					lo = e.segStart
				}
				if e.segEnd > hi {
					hi = e.segEnd
				}
				c.retire(e)
			}
			c.stats.Merges++
			declSegs = []Segment{{Addr: lo, Len: int(hi - lo)}}
		}
	}
	p := &pendingDecl{key: key(declSegs), segs: declSegs, single: len(declSegs) == 1}
	if p.single {
		p.segStart = declSegs[0].Addr
		p.segEnd = declSegs[0].Addr + vm.Addr(declSegs[0].Len)
	}
	p.waiters = append(p.waiters, pendingWaiter{segs: segs, done: done})
	c.pending[p.key] = p
	if p.single {
		c.pendIdx = append(c.pendIdx, p)
	}
	cost := DeclareBaseCost + sim.Duration(len(declSegs))*DeclarePerSegCost
	caller.Submit(cpu.Kernel, cost, func() { c.finishDeclare(p, tick) })
}

// pendingFor returns an in-flight declaration the request can join: the
// exact key, or (single-segment) any pending declaration covering the
// range. Invalidated pendings are not joinable — their result is dead.
func (c *Cache) pendingFor(k string, segs []Segment, single bool) *pendingDecl {
	if p, ok := c.pending[k]; ok && !p.invalidated {
		return p
	}
	if !single {
		return nil
	}
	a := segs[0].Addr
	b := a + vm.Addr(segs[0].Len)
	for _, p := range c.pendIdx {
		if !p.invalidated && p.segStart <= a && b <= p.segEnd {
			return p
		}
	}
	return nil
}

// finishDeclare completes an in-flight declaration: performs the Declare,
// attaches the entry (unless the range was invalidated meanwhile), and
// delivers every coalesced waiter its region or view.
func (c *Cache) finishDeclare(p *pendingDecl, tick int64) {
	// A poisoned pending's key may have been reused by a newer pending
	// (the range was re-malloc'd and re-missed); only deregister ourselves.
	if c.pending[p.key] == p {
		delete(c.pending, p.key)
	}
	if p.single {
		for i, q := range c.pendIdx {
			if q == p {
				c.pendIdx = append(c.pendIdx[:i], c.pendIdx[i+1:]...)
				break
			}
		}
	}
	r, err := c.mgr.Declare(p.segs)
	if err != nil {
		for _, w := range p.waiters {
			w.done(nil, err)
		}
		return
	}
	e := &cacheEntry{
		key:     p.key,
		region:  r,
		single:  p.single,
		bytes:   r.Bytes(),
		refs:    len(p.waiters),
		lastUse: tick,
	}
	e.segStart, e.segEnd = p.segStart, p.segEnd
	if !p.single {
		e.segStart, e.segEnd = ^vm.Addr(0), 0
		for _, s := range p.segs {
			e.segStart = min(e.segStart, s.Addr)
			e.segEnd = max(e.segEnd, s.Addr+vm.Addr(s.Len))
		}
	}
	c.byRegion[r] = e
	if p.invalidated || c.closed {
		// The mapping died (or the cache shut down) while the declare was
		// in flight: hand the region to the waiters — their transfers
		// abort at pin time like any use-after-free — but never cache it.
		e.detached = true
	} else {
		c.attach(e)
	}
	for _, w := range p.waiters {
		if key(w.segs) == p.key {
			w.done(r, nil)
		} else {
			w.done(newSubRegion(r, w.segs[0]), nil)
		}
	}
	c.evict()
}

// Get is the blocking-process form of GetAsync.
func (c *Cache) Get(p *sim.Proc, segs []Segment) (*Region, error) {
	var region *Region
	var err error
	done := &sim.Completion{}
	c.GetAsync(segs, func(r *Region, e error) {
		region, err = r, e
		done.Complete(c.eng, nil)
	})
	done.Wait(p)
	return region, err
}

// Put releases a Get reference. Without caching, the declaration is dropped
// immediately (classical behaviour); with caching the entry stays for
// reuse, subject to eviction. Releasing the last reference of a detached
// entry (invalidated, evicted, or merged away while held) drops the
// declaration. Costs are charged on the cache's default core; use PutOn
// to attribute them to the releasing thread's core.
func (c *Cache) Put(r *Region) { c.PutOn(c.core, r) }

// PutOn is Put with any undeclare syscall charged on the calling
// thread's core, mirroring GetAsyncOn.
func (c *Cache) PutOn(caller *cpu.Core, r *Region) {
	if !c.cfg.Enabled {
		caller.Submit(cpu.Kernel, UndeclareCost, func() {
			// The region may still be finishing its unpin (PinEachComm
			// charges unpin work asynchronously); retry until idle.
			c.undeclareWhenIdle(r)
		})
		return
	}
	base := r.Base()
	e, ok := c.byRegion[base]
	if !ok {
		// Not tracked (the entry was force-dropped); drop the declaration
		// now that the communication is done.
		c.submitUndeclare(caller, base)
		return
	}
	if e.refs <= 0 {
		panic("core: cache Put without matching Get")
	}
	e.refs--
	if e.detached {
		if e.refs == 0 {
			delete(c.byRegion, base)
			c.submitUndeclare(caller, base)
		}
		return
	}
	c.evict()
}

// submitUndeclare charges the undeclare syscall on the given core and
// performs the undeclare inside the charged work (not detached from it),
// retrying until the region is idle.
func (c *Cache) submitUndeclare(on *cpu.Core, r *Region) {
	on.Submit(cpu.Kernel, UndeclareCost, func() { c.undeclareWhenIdle(r) })
}

func (c *Cache) undeclareWhenIdle(r *Region) {
	if r.InUse() {
		c.eng.After(sim.Microsecond, func() { c.undeclareWhenIdle(r) })
		return
	}
	_ = c.mgr.Undeclare(r)
}

// InvalidateRange implements vm.Notifier: an unmap drops every cached
// entry overlapping the range, and poisons overlapping in-flight
// declarations so their results are not cached. The driver's own
// notifier — registered first — has already unpinned; this callback
// removes the user-space mapping from range to declaration, which is what
// makes a later re-malloc at the same address a clean miss instead of a
// stale hit. Mapping-preserving invalidations (COW break, swap-out,
// migration, mprotect) leave entries cached: the driver repins through
// the intact mapping, which is the paper's decoupling.
func (c *Cache) InvalidateRange(nr vm.NotifierRange) {
	if !c.cfg.Enabled || nr.Reason != vm.InvalidateUnmap {
		return
	}
	// The index holds byte spans; widened to whole pages, the query finds
	// every entry whose pages the range touches, and the exact check drops
	// vectorial entries hit only in a gap between their segments.
	var dead []*cacheEntry
	for _, e := range c.idx.appendOverlapping(nil, vm.PageAlignDown(nr.Start), vm.PageAlignUp(nr.End)) {
		if e.region.overlaps(nr.Start, nr.End) {
			dead = append(dead, e)
		}
	}
	// Drop in declaration order.
	sort.Slice(dead, func(i, j int) bool { return dead[i].region.id < dead[j].region.id })
	for _, e := range dead {
		c.stats.Invalidations++
		c.emit(trace.CacheInvalidate, uint64(e.region.ID()), int(nr.Reason))
		c.retire(e)
	}
	for _, p := range c.pendIdx {
		if !p.invalidated && p.segStart < nr.End && nr.Start < p.segEnd {
			p.invalidated = true
			c.stats.Invalidations++
		}
	}
	for _, p := range c.pending {
		if p.single || p.invalidated {
			continue
		}
		for _, s := range p.segs {
			sStart := vm.PageAlignDown(s.Addr)
			sEnd := vm.PageAlignUp(s.Addr + vm.Addr(s.Len))
			if sStart < nr.End && nr.Start < sEnd {
				p.invalidated = true
				c.stats.Invalidations++
				break
			}
		}
	}
}

// retire removes an entry from the cache. Unreferenced entries are
// undeclared (as charged kernel work on the cache's default core —
// notifier and eviction context, not a particular thread); referenced
// ones are detached and the last Put undeclares them.
func (c *Cache) retire(e *cacheEntry) {
	c.detach(e)
	if e.refs == 0 {
		delete(c.byRegion, e.region)
		c.submitUndeclare(c.core, e.region)
	}
}

// evict retires unreferenced entries while the cache exceeds its entry
// capacity or byte budget, choosing victims through the configured
// Evictor (paper §3.2: "when the number of regions becomes too high, the
// least recently used ones are undeclared").
func (c *Cache) evict() {
	for c.overBudget() {
		var victim *cacheEntry
		for _, e := range c.entries {
			if e.refs > 0 || e.region.InUse() {
				continue
			}
			if victim == nil {
				victim = e
				continue
			}
			ec := EvictCandidate{Bytes: e.bytes, LastUse: e.lastUse}
			vc := EvictCandidate{Bytes: victim.bytes, LastUse: victim.lastUse}
			if c.evictor.Better(ec, vc) ||
				(!c.evictor.Better(vc, ec) && e.region.id < victim.region.id) {
				victim = e
			}
		}
		if victim == nil {
			return // everything referenced; stay over budget
		}
		c.stats.Evictions++
		c.retire(victim)
	}
}

func (c *Cache) overBudget() bool {
	if len(c.entries) > c.cfg.Capacity {
		return true
	}
	return c.cfg.ByteCapacity > 0 && c.bytes > c.cfg.ByteCapacity
}

// ---- interval index ----

// attach inserts an entry into the exact map and the interval index.
func (c *Cache) attach(e *cacheEntry) {
	// Defense in depth: never silently overwrite an entry under the same
	// key (its bytes and byRegion tracking would leak) — retire it.
	if old, ok := c.entries[e.key]; ok {
		c.retire(old)
	}
	c.entries[e.key] = e
	c.bytes += e.bytes
	c.idx.insert(e.segStart, e.segEnd, e.region.id, e)
}

// detach removes an entry from the exact map and interval index, marking
// it detached; the caller decides whether to undeclare now (refs == 0) or
// let Put drain it.
func (c *Cache) detach(e *cacheEntry) {
	if e.detached {
		return
	}
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	e.detached = true
	c.idx.remove(e.segStart, e.region.id, e)
}

// covering returns an attached single-segment entry whose byte span
// covers [a, a+l), or nil: among several, the one starting last.
func (c *Cache) covering(a vm.Addr, l int) *cacheEntry {
	e, _ := c.idx.covering(a, a+vm.Addr(l), isSingle)
	return e
}

// overlapping returns the attached single-segment entries whose byte
// spans intersect [a, b), in index order.
func (c *Cache) overlapping(a, b vm.Addr) []*cacheEntry {
	out := c.idx.appendOverlapping(nil, a, b)
	kept := out[:0]
	for _, e := range out {
		if e.single {
			kept = append(kept, e)
		}
	}
	return kept
}

func isSingle(e *cacheEntry) bool { return e.single }

// emit records a cache trace event through the manager's recorder.
func (c *Cache) emit(k trace.Kind, seq uint64, a int) {
	if c.mgr.Trace == nil {
		return
	}
	c.mgr.Trace.Emit(trace.Event{T: c.eng.Now(), Kind: k, Node: c.mgr.TraceNode, Seq: seq, A: a})
}
