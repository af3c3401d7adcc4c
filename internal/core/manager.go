package core

import (
	"fmt"
	"sort"

	"omxsim/internal/cpu"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
	"omxsim/internal/vm"
)

// ManagerConfig tunes the driver-side pinning engine.
type ManagerConfig struct {
	// Policy is the pinning strategy the manager consults. Nil means
	// policy.PinEachComm.
	Policy policy.Policy
	// PinnedPageLimit caps the total pages the manager keeps pinned; when a
	// pin would exceed it, least-recently-used idle regions are unpinned
	// first (paper §3.1: "if there are too many pinned pages ... it may
	// also request some unpinning"). 0 means unlimited.
	PinnedPageLimit int
	// PinChunkPages is the granularity of pin/unpin work on the core, so
	// bottom-half processing can interleave with a large pin (which is
	// what lets an interrupt flood starve pinning, paper §4.3). 0 means
	// defaultPinChunkPages.
	PinChunkPages int
}

// defaultPinChunkPages is the default pin-work granularity: 32 pages
// (128 KiB) per kernel work item, matching Open-MX's chunked
// get_user_pages loop.
const defaultPinChunkPages = 32

// Stats counts the manager's activity. A `stat` tag names the field's
// per-cell scenario metric (stats.<name>, summed over processes).
type Stats struct {
	Declares         uint64 `stat:"declares"`
	PinOps           uint64 `stat:"pin_ops"`   // full-region pin completions
	UnpinOps         uint64 `stat:"unpin_ops"` // full-region unpins
	PagesPinned      uint64 `stat:"pages_pinned"`
	PagesUnpinned    uint64 `stat:"pages_unpinned"`
	Repins           uint64 `stat:"repins"`          // pins of a region previously invalidated
	InvalidateHits   uint64 `stat:"invalidate_hits"` // notifier callbacks overlapping declared regions
	LRUUnpins        uint64 `stat:"lru_unpins"`      // unpins forced by the pinned-page limit
	PinFailures      uint64 `stat:"pin_failures"`
	AcquiresPinned   uint64 `stat:"acquires_pinned"` // acquires that found the region already pinned
	AcquiresUnpinned uint64 `stat:"acquires_unpinned"`
	SpeculativePins  uint64 `stat:"speculative_pins"` // pins started with no communication waiting (declare/hint driven)
	ODPFaults        uint64 `stat:"odp_faults"`       // ODP page-request rounds serviced for the NIC
	ODPFaultPages    uint64 `stat:"odp_fault_pages"`  // pages materialized by ODP fault service
}

// Manager is the driver-side pinning engine: it owns declared regions,
// executes pin/unpin work on a core at kernel priority, listens to MMU
// notifiers, and enforces the pinned-page limit. It implements vm.Notifier.
type Manager struct {
	eng  *sim.Engine
	as   *vm.AddressSpace
	core *cpu.Core
	spec cpu.Spec
	cfg  ManagerConfig

	// regions holds the declared regions in declaration (id) order, so
	// every walk over them is deterministic; byAddr indexes the same
	// regions by the pages their segments span, so an MMU-notifier
	// callback visits only the regions it overlaps.
	regions []*Region
	byAddr  addrIndex[*Region]
	hits    []*Region // InvalidateRange's reusable hit buffer
	nextID  RegionID
	tick    int64

	// Trace, when non-nil, records pinning lifecycle events.
	Trace *trace.Recorder
	// TraceNode labels trace events with a host id.
	TraceNode int

	// OnInvalidateInUse, when non-nil, is called after an MMU-notifier
	// invalidation unpins a region that still has active users — i.e. the
	// application freed a buffer mid-communication. The protocol layer uses
	// it to abort the affected requests instead of retrying forever against
	// a mapping that no longer exists.
	OnInvalidateInUse func(*Region)

	// OnPinChurn, when non-nil, observes every pin/unpin page-count
	// change (pinned=true for pins). The chaos stress report buckets the
	// churn per interval through it.
	OnPinChurn func(pages int, pinned bool)

	pinnedTotal int // pages currently pinned across regions
	stats       Stats
}

// NewManager builds a manager for address space as, running pin work on
// core. It registers itself as an MMU notifier on as (the paper attaches
// the notifier when an endpoint is opened).
func NewManager(eng *sim.Engine, as *vm.AddressSpace, core *cpu.Core, cfg ManagerConfig) *Manager {
	if cfg.Policy == nil {
		cfg.Policy = policy.PinEachComm
	}
	if cfg.PinChunkPages <= 0 {
		cfg.PinChunkPages = defaultPinChunkPages
	}
	m := &Manager{
		eng:  eng,
		as:   as,
		core: core,
		spec: core.Spec(),
		cfg:  cfg,
	}
	as.RegisterNotifier(m)
	return m
}

// Close detaches the manager from the address space and unpins everything.
func (m *Manager) Close() {
	m.as.UnregisterNotifier(m)
	for _, r := range m.regions {
		m.unpinNow(r)
	}
	m.regions = nil
	m.byAddr = addrIndex[*Region]{}
}

// ReleaseAll drops every pin the manager holds without detaching it — the
// driver's crash path: pinned pages do not survive the instance, but the
// declarations do, so surviving regions repin on demand when the node
// restarts. Waiters on in-flight pins fail with ErrPinFailed.
func (m *Manager) ReleaseAll() {
	for _, r := range m.regions {
		if r.state == stateUnpinned && r.pinnedPages == 0 {
			continue
		}
		err := fmt.Errorf("%w: pins released on crash", ErrPinFailed)
		m.failWaiters(r, err)
		m.failPrefixWaiters(r, err)
		m.unpinNow(r)
	}
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats { return m.stats }

// PinnedPages reports the total pages currently pinned.
func (m *Manager) PinnedPages() int { return m.pinnedTotal }

// NumRegions reports the number of declared regions.
func (m *Manager) NumRegions() int { return len(m.regions) }

// Region looks up a declared region by descriptor.
func (m *Manager) Region(id RegionID) (*Region, bool) {
	i := m.find(id)
	if i < 0 {
		return nil, false
	}
	return m.regions[i], true
}

// find returns the position of region id in m.regions, or -1.
func (m *Manager) find(id RegionID) int {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].id >= id })
	if i < len(m.regions) && m.regions[i].id == id {
		return i
	}
	return -1
}

// Declare registers a region without pinning it (except under the
// Permanent policy, which pins immediately). Declaration validates only the
// segment count and lengths — NOT the addresses: an invalid address is
// detected when pinning fails at communication time, aborting that request
// (paper §3.1).
func (m *Manager) Declare(segs []Segment) (*Region, error) {
	if len(segs) == 0 || len(segs) > MaxSegments {
		return nil, ErrTooManySegs
	}
	r := &Region{segs: make([]Segment, len(segs))}
	copy(r.segs, segs)
	r.lo, r.hi = ^vm.Addr(0), 0
	for _, s := range segs {
		if s.Len <= 0 {
			return nil, fmt.Errorf("core: segment length %d: %w", s.Len, ErrTooManySegs)
		}
		pages := vm.PageCount(s.Addr, s.Len)
		r.segPin = append(r.segPin, segPin{pages: pages})
		r.bytes += s.Len
		r.pages += pages
		r.lo = min(r.lo, vm.PageAlignDown(s.Addr))
		r.hi = max(r.hi, vm.PageAlignUp(s.Addr+vm.Addr(s.Len)))
	}
	r.as = m.as
	r.mgr = m
	r.noPin = m.cfg.Policy.Access() != policy.AccessPinned
	r.odp = m.cfg.Policy.Access() == policy.AccessODP
	m.nextID++
	r.id = m.nextID
	m.regions = append(m.regions, r) // ids only grow: the order holds
	m.byAddr.insert(r.lo, r.hi, r.id, r)
	m.stats.Declares++
	if m.cfg.Policy.PinAtDeclare() && !r.noPin {
		m.startPin(r)
	}
	return r, nil
}

// Undeclare removes a region, unpinning it if needed. Regions with active
// users cannot be undeclared. Subrange views cannot be undeclared — only
// the base declaration can (the cache owns that lifecycle).
func (m *Manager) Undeclare(r *Region) error {
	if r.parent != nil {
		return fmt.Errorf("core: undeclare of a subrange view: %w", ErrUnknownRegion)
	}
	i := m.find(r.id)
	if i < 0 {
		return ErrUnknownRegion
	}
	if r.useCount > 0 {
		return ErrRegionBusy
	}
	m.unpinNow(r)
	m.regions = append(m.regions[:i], m.regions[i+1:]...)
	m.byAddr.remove(r.lo, r.id, r)
	return nil
}

// OnPinProgress registers fn to run once at least pages of r are pinned
// (immediately if they already are). If the pin fails or the region is
// invalidated first, fn receives the error. Used by the overlapped send
// path to delay the initiating message until a small prefix is pinned —
// the mitigation sketched in the paper's §4.3.
func (m *Manager) OnPinProgress(r *Region, pages int, fn func(error)) {
	if r.parent != nil {
		// Translate the view-relative threshold onto the parent's pin
		// cursor (which counts from the parent's first page).
		if pages > r.pages {
			pages = r.pages
		}
		m.OnPinProgress(r.parent, r.parentPageOff+pages, fn)
		return
	}
	if r.noPin {
		fn(nil)
		return
	}
	if pages > r.pages {
		pages = r.pages
	}
	if r.pinnedPages >= pages && (r.state == statePinned || r.state == statePinning) {
		fn(nil)
		return
	}
	if r.state == stateUnpinned {
		fn(fmt.Errorf("%w: region not being pinned", ErrPinFailed))
		return
	}
	r.prefixWaiters = append(r.prefixWaiters, prefixWaiter{epoch: r.epoch, pages: pages, done: fn})
}

// wakePrefixWaiters fires progress callbacks whose thresholds are reached.
func (m *Manager) wakePrefixWaiters(r *Region) {
	kept := r.prefixWaiters[:0]
	for _, w := range r.prefixWaiters {
		if w.epoch == r.epoch && r.pinnedPages >= w.pages {
			w.done(nil)
			continue
		}
		if w.epoch != r.epoch {
			w.done(fmt.Errorf("%w: invalidated during pin", ErrPinFailed))
			continue
		}
		kept = append(kept, w)
	}
	r.prefixWaiters = kept
}

// failPrefixWaiters errors out all pending progress callbacks.
func (m *Manager) failPrefixWaiters(r *Region, err error) {
	ws := r.prefixWaiters
	r.prefixWaiters = nil
	for _, w := range ws {
		w.done(err)
	}
}

// Acquire marks the region in use by a communication request and ensures
// pinning per the policy. The returned completion fires when the region is
// fully pinned (with an error if pinning failed). Under Overlapped the
// caller proceeds immediately and uses Region.Ready per access instead of
// waiting.
func (m *Manager) Acquire(r *Region) *sim.Completion {
	// A subrange view acquires its base declaration: pin state, use
	// counts, and LRU recency all live there.
	r = r.Base()
	m.tick++
	r.lastUse = m.tick
	r.useCount++
	done := &sim.Completion{}
	if r.noPin {
		// QsNet model: nothing to pin, ever.
		m.stats.AcquiresPinned++
		done.Complete(m.eng, nil)
		return done
	}
	switch r.state {
	case statePinned:
		m.stats.AcquiresPinned++
		done.Complete(m.eng, nil)
	case statePinning:
		m.stats.AcquiresUnpinned++
		r.waiters = append(r.waiters, pinWaiter{epoch: r.epoch, done: func(err error) {
			done.Complete(m.eng, err)
		}})
	case stateUnpinned:
		m.stats.AcquiresUnpinned++
		r.waiters = append(r.waiters, pinWaiter{epoch: r.epoch, done: func(err error) {
			done.Complete(m.eng, err)
		}})
		m.startPin(r)
	}
	return done
}

// Release drops a communication's reference. Backends with UnpinOnRelease
// (pin-each-comm) unpin once no users remain; the decoupled policies
// leave the region pinned for reuse.
func (m *Manager) Release(r *Region) {
	r = r.Base()
	if r.useCount <= 0 {
		panic("core: Release without Acquire")
	}
	r.useCount--
	if m.cfg.Policy.UnpinOnRelease() && r.useCount == 0 {
		m.startUnpin(r)
	}
}

// startPin begins chunked pinning of r at kernel priority. All chunks are
// submitted upfront so they execute contiguously on the core, exactly like
// get_user_pages running in syscall context: later syscalls queue behind
// the whole pin, while bottom halves (higher priority) still interleave
// between chunks — which is what lets an interrupt flood starve pinning
// (paper §4.3).
func (m *Manager) startPin(r *Region) {
	if r.state != stateUnpinned {
		return
	}
	r.state = statePinning
	if r.invalidated {
		m.stats.Repins++
	}
	if r.useCount == 0 {
		// Nobody is waiting: this pin is speculation (permanent's
		// declare-time pin, pin-ahead's hint-driven pin).
		m.stats.SpeculativePins++
	}
	m.emit(trace.PinStart, uint64(r.id), r.pages, 0)
	epoch := r.epoch
	if r.pages == 0 {
		m.finishPin(r, nil)
		return
	}
	first := true
	for start := 0; start < r.pages; {
		si, pageInSeg := r.locatePageFrom(start)
		count := m.cfg.PinChunkPages
		if rem := r.pages - start; count > rem {
			count = rem
		}
		// Clamp the chunk at the segment boundary: one vm call per segment.
		if segRem := r.segPin[si].pages - pageInSeg; count > segRem {
			count = segRem
		}
		cost := sim.Duration(count) * perPagePin(m.spec)
		if first {
			cost += m.spec.PinCost(0) // base overhead charged once per pin
			first = false
		}
		segIdx, n := si, count
		last := start+count >= r.pages
		m.core.Submit(cpu.Kernel, cost, func() {
			if r.epoch != epoch || r.state != statePinning {
				return // invalidated while the work was queued/running
			}
			m.evictForLimit(n, r)
			// Chunks run in submission order, so each extends its
			// segment's handle by the pages that follow the last chunk's.
			sp := &r.segPin[segIdx]
			if sp.pin == nil {
				sp.pin = m.as.NewPin(r.segs[segIdx].Addr, sp.pages)
			}
			if err := sp.pin.Extend(n); err != nil {
				m.finishPin(r, fmt.Errorf("%w: %v", ErrPinFailed, err))
				return
			}
			r.pinnedPages += n
			m.pinnedTotal += n
			m.stats.PagesPinned += uint64(n)
			if m.OnPinChurn != nil {
				m.OnPinChurn(n, true)
			}
			m.wakePrefixWaiters(r)
			if last {
				m.finishPin(r, nil)
			}
		})
		start += count
	}
}

func perPagePin(spec cpu.Spec) sim.Duration {
	return spec.PinCost(1) - spec.PinCost(0)
}

func (m *Manager) finishPin(r *Region, err error) {
	if err != nil {
		m.stats.PinFailures++
		m.emit(trace.PinFail, uint64(r.id), r.pinnedPages, r.pages)
		m.failWaiters(r, err)
		m.failPrefixWaiters(r, err)
		// Roll back whatever was pinned so the region can be retried.
		m.unpinNow(r)
		return
	}
	r.state = statePinned
	m.stats.PinOps++
	m.emit(trace.PinDone, uint64(r.id), r.pages, 0)
	m.wakeReadyWaiters(r)
}

func (m *Manager) wakeReadyWaiters(r *Region) {
	if r.state != statePinned {
		return
	}
	ws := r.waiters
	r.waiters = nil
	for _, w := range ws {
		if w.epoch == r.epoch {
			w.done(nil)
		}
	}
}

func (m *Manager) failWaiters(r *Region, err error) {
	ws := r.waiters
	r.waiters = nil
	for _, w := range ws {
		w.done(err)
	}
}

// startUnpin schedules the unpin cost on the core, then drops the pins.
func (m *Manager) startUnpin(r *Region) {
	if r.state == stateUnpinned && r.pinnedPages == 0 {
		return
	}
	pages := r.pinnedPages
	epoch := r.epoch
	r.epoch++ // cancel in-flight pin chunks
	cost := m.spec.UnpinCost(pages)
	m.core.Submit(cpu.Kernel, cost, func() {
		// The region may have moved on while the unpin cost was queued: an
		// MMU-notifier invalidation already dropped the pins (advancing the
		// epoch past the one this unpin established) and a later Acquire
		// started a fresh pin, or a new communication re-acquired the
		// still-pinned region. Unpinning in either case would drop pins a
		// live request depends on — and the epoch bump in unpinNow would
		// cancel the in-flight repin chunks, wedging their waiters forever.
		if r.epoch != epoch+1 || r.useCount > 0 {
			return
		}
		m.unpinNow(r)
	})
}

// unpinNow synchronously drops every pin the region holds (state only; cost
// must have been charged by the caller where relevant).
func (m *Manager) unpinNow(r *Region) {
	dropped := 0
	for si := range r.segPin {
		if sp := &r.segPin[si]; sp.pin != nil {
			dropped += sp.pin.NumPages()
			sp.pin.Unpin()
			sp.pin = nil
		}
	}
	if dropped > 0 {
		m.pinnedTotal -= dropped
		m.stats.PagesUnpinned += uint64(dropped)
		m.stats.UnpinOps++
		if m.OnPinChurn != nil {
			m.OnPinChurn(dropped, false)
		}
		m.emit(trace.Unpin, uint64(r.id), dropped, 0)
	}
	r.pinnedPages = 0
	r.state = stateUnpinned
	r.epoch++
}

// locatePageFrom maps a region page index to (segment index, page within
// segment).
func (r *Region) locatePageFrom(page int) (seg, pageInSeg int) {
	for si := range r.segPin {
		if page < r.segPin[si].pages {
			return si, page
		}
		page -= r.segPin[si].pages
	}
	panic(fmt.Sprintf("core: page index %d beyond region", page))
}

// evictForLimit unpins idle LRU regions until adding n pages respects the
// pinned-page limit. Active regions are never evicted; if only active
// regions remain the limit is exceeded (correctness over policy). Among
// equally recent regions (never acquired, pinned speculatively) the oldest
// declaration goes first.
func (m *Manager) evictForLimit(n int, pinning *Region) {
	if m.cfg.PinnedPageLimit <= 0 {
		return
	}
	for m.pinnedTotal+n > m.cfg.PinnedPageLimit {
		var victim *Region
		for _, r := range m.regions {
			if r == pinning || r.useCount > 0 || r.pinnedPages == 0 {
				continue
			}
			if victim == nil || r.lastUse < victim.lastUse {
				victim = r
			}
		}
		if victim == nil {
			return
		}
		// Charge the unpin cost; the state change is immediate so the
		// accounting stays consistent with the decision just made.
		m.core.Submit(cpu.Kernel, m.spec.UnpinCost(victim.pinnedPages), nil)
		m.unpinNow(victim)
		m.stats.LRUUnpins++
	}
}

// InvalidateRange implements vm.Notifier: any region overlapping the
// invalidated range is unpinned immediately (the callback runs before the
// mapping changes, so the pins being dropped are still valid). The region
// stays declared and will be repinned at its next use (paper §3.1). The
// unpin CPU cost is charged at kernel priority on the manager's core — in
// Linux it executes in the context of the thread performing the unmap.
//
// Page-table-translated regions (no-pinning, ODP) hold no pins, but an
// unmap under an in-use region still kills the transfer: the live
// translation the NIC depends on is gone, so the affected requests abort
// through OnInvalidateInUse instead of retrying against a dead mapping.
//
// Dispatch is address-indexed: the callback visits only the regions whose
// pages overlap the range, in address order, so reclaim — which fires it
// once per stolen page — costs a binary search, not a walk over every
// declared region. The hits are collected before any is handled, because
// handling one runs protocol callbacks.
func (m *Manager) InvalidateRange(nr vm.NotifierRange) {
	hits := m.byAddr.appendOverlapping(m.hits[:0], nr.Start, nr.End)
	m.hits = nil // a nested notification gets a buffer of its own
	for _, r := range hits {
		if !r.overlaps(nr.Start, nr.End) {
			continue // a vectorial region hit in a gap between its segments
		}
		if r.noPin {
			if nr.Reason == vm.InvalidateUnmap && r.useCount > 0 {
				m.stats.InvalidateHits++
				m.emit(trace.Invalidate, uint64(r.id), int(nr.Start), int(nr.End-nr.Start))
				if m.OnInvalidateInUse != nil {
					m.OnInvalidateInUse(r)
				}
			}
			continue
		}
		if r.pinnedPages == 0 && r.state != statePinning {
			continue
		}
		// Page-granular invalidations (COW break, swap-out, migration)
		// leave the mapping intact and, by construction, never touch a
		// pinned page — pinning is what exempts a page from them. They
		// only concern the driver if they hit the pinned prefix (which a
		// concurrent pin of the same range can race into); an invalidation
		// confined to the region's still-unpinned tail drops nothing the
		// driver holds, and get_user_pages simply faults those pages back
		// in when the pin cursor reaches them. An unmap kills the mapping
		// itself, so it always invalidates the declared region.
		if nr.Reason != vm.InvalidateUnmap && !r.pinnedOverlaps(nr.Start, nr.End) {
			continue
		}
		m.stats.InvalidateHits++
		m.emit(trace.Invalidate, uint64(r.id), int(nr.Start), int(nr.End-nr.Start))
		r.invalidated = true
		// Outstanding waiters see the pin fail: their communication aborts
		// rather than DMA-ing through a dying mapping.
		m.failWaiters(r, fmt.Errorf("%w: invalidated (%v)", ErrPinFailed, nr.Reason))
		m.failPrefixWaiters(r, fmt.Errorf("%w: invalidated (%v)", ErrPinFailed, nr.Reason))
		m.core.Submit(cpu.Kernel, m.spec.UnpinCost(r.pinnedPages), nil)
		m.unpinNow(r)
		if r.useCount > 0 && m.OnInvalidateInUse != nil {
			m.OnInvalidateInUse(r)
		}
	}
	clear(hits)
	m.hits = hits[:0]
}

// emit records a trace event if a recorder is attached.
func (m *Manager) emit(k trace.Kind, seq uint64, a, b int) {
	if m.Trace == nil {
		return
	}
	m.Trace.Emit(trace.Event{T: m.eng.Now(), Kind: k, Node: m.TraceNode, Seq: seq, A: a, B: b})
}
