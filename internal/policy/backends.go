package policy

// base carries the common no-op answers; each backend overrides what it
// cares about.
type base struct {
	name, desc string
}

func (b base) Name() string                                 { return b.name }
func (b base) Description() string                          { return b.desc }
func (b base) Access() AccessMode                           { return AccessPinned }
func (b base) PinAtDeclare() bool                           { return false }
func (b base) UnpinOnRelease() bool                         { return false }
func (b base) OverlapTransfer(blocking, adaptive bool) bool { return false }
func (b base) RequiresCache() bool                          { return false }

// pinEachComm is the classical synchronous model: pin when a
// communication acquires the region, unpin when it releases it (Figure
// 6's "Pin once per Communication", Figure 7's "Regular Pinning").
type pinEachComm struct{ base }

func (pinEachComm) UnpinOnRelease() bool { return true }

// permanent pins at declaration and unpins only at undeclaration —
// Figure 6's upper bound. Unsafe in general (a notifier still rips the
// pins out, but nothing repins proactively until the next use).
type permanent struct{ base }

func (permanent) PinAtDeclare() bool { return true }

// onDemand pins synchronously at first use and leaves the region pinned;
// MMU notifiers unpin on invalidation and the next use repins. Combined
// with the user-space cache this is Figure 7's "Pinning Cache".
type onDemand struct{ base }

// overlapped is onDemand with the pin running as deferred chunked kernel
// work while the transfer is already on the wire (Figure 7's "Overlapped
// Pinning"). Accesses check the pin-progress cursor; misses drop the
// packet and retransmission recovers (paper §3.3).
type overlapped struct{ base }

func (overlapped) OverlapTransfer(blocking, adaptive bool) bool {
	// Paper §5: under adaptive selection, blocking requests keep the
	// overlap while overlap-aware (non-blocking) requests pin
	// synchronously and stay out of the application's way.
	if adaptive {
		return blocking
	}
	return true
}

// noPinning is the idealized QsNet-style model: the NIC has a full MMU
// synchronized with the host page table, so nothing is ever pinned and
// accesses translate at zero modeled cost. An upper bound, not something
// commodity Ethernet hardware can do.
type noPinning struct{ base }

func (noPinning) Access() AccessMode { return AccessPageTable }

// odp is the NP-RDMA-style on-demand-paging backend ("Using Commodity
// RDMA without Pinning Memory"): nothing is pinned, the NIC translates
// through the live page table, and an access to a non-resident page
// fails like an IOMMU page fault. The dropped packet is recovered by the
// protocol's retry machinery while the host services the page request
// asynchronously — so cold or swapped-out buffers cost fault round
// trips instead of pin syscalls.
type odp struct{ base }

func (odp) Access() AccessMode { return AccessODP }

// pinAhead is the eBPF-mm-style user-guided backend: the application
// (or the library on its behalf) hints upcoming buffers and the driver
// pins them speculatively, ahead of any communication. Declaration —
// which the hint triggers via the region cache — starts the pin
// immediately, so by the time a transfer acquires the region the pin is
// usually already complete and the acquire is free. Unlike permanent
// pinning it stays honest: notifiers unpin, the pinned-page limit
// evicts, and an unhinted region degrades to on-demand pinning.
type pinAhead struct{ base }

func (pinAhead) PinAtDeclare() bool  { return true }
func (pinAhead) RequiresCache() bool { return true }

// Built-in backends, exported both as values (for direct configuration)
// and through the registry (for -policy name selection).
var (
	PinEachComm Policy = pinEachComm{base{"pin-each-comm", "pin at acquire, unpin at release: the classical synchronous model (Fig. 6/7 baseline)"}}
	Permanent   Policy = permanent{base{"permanent", "pin at declaration, unpin at undeclaration: the unsafe upper bound (Fig. 6)"}}
	OnDemand    Policy = onDemand{base{"on-demand", "pin at first use, keep pinned, repin after notifier invalidation (Fig. 7 pinning cache)"}}
	Overlapped  Policy = overlapped{base{"overlapped", "pin as chunked deferred work behind the transfer; misses drop and retry (Fig. 7)"}}
	NoPinning   Policy = noPinning{base{"no-pinning", "QsNet-style NIC MMU: never pin, translate through the live page table at zero cost"}}
	ODP         Policy = odp{base{"odp", "NP-RDMA-style on-demand paging: never pin; NIC faults on non-resident pages and retries"}}
	PinAhead    Policy = pinAhead{base{"pin-ahead", "eBPF-mm-style user-guided speculation: hints and declarations pin ahead of the transfer"}}
)

func init() {
	for _, p := range []Policy{PinEachComm, Permanent, OnDemand, Overlapped, NoPinning, ODP, PinAhead} {
		MustRegister(p)
	}
}
