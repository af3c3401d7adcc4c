package omx

import (
	"omxsim/internal/cpu"
	"omxsim/internal/sim"
)

// MemConfig is a node's physical-memory pressure model: a frame budget
// with kswapd-style watermarks. With Frames > 0 the node's PhysMem is
// bounded, a kswapd runs as recurring kernel work on the sim engine
// (charged on a core like any other kernel work), and allocations that
// hit capacity stall in direct reclaim — so swap pressure emerges from
// the allocator instead of being injected by a fault.
type MemConfig struct {
	// Frames is the physical frame budget (0 = unlimited: no reclaim,
	// no kswapd, no LRU cost on the fault path).
	Frames int
}

// Reclaim costs that no configuration varies.
const (
	// kswapdPeriod is the background reclaimer's wakeup interval.
	kswapdPeriod = 100 * sim.Microsecond
	// scanCost is the CPU time charged per frame examined by a reclaim
	// scan.
	scanCost = 100 * sim.Nanosecond
	// writebackDelay is the CPU/IO time charged per page written to
	// swap: what makes stealing pages expensive, not free.
	writebackDelay = 2 * sim.Microsecond
)

// ConfigureMemory bounds the node's physical memory per mem and starts
// its kswapd. Call it before opening processes (the capacity must be set
// before any frame materializes). A no-op when mem.Frames <= 0.
//
// The kswapd is daemon work: it ticks every kswapdPeriod, and when free
// frames sit below the low watermark (Frames/8) it reclaims toward the
// high watermark (Frames/4), charging scan + writeback time as kernel
// work on the RX core (the same core that loses time to bottom halves —
// memory pressure and interrupt pressure compete for it, as they do on a
// real host). Direct-reclaim stalls charge the same way; the state change
// itself is immediate, matching how the driver charges unpin costs.
func (n *Node) ConfigureMemory(mem MemConfig) {
	if mem.Frames <= 0 {
		return
	}
	n.Phys.SetCapacity(mem.Frames)
	n.Phys.SetWatermarks(0, 0)
	n.Phys.SetReclaimHook(func(scanned, stolen int, direct bool) {
		cost := sim.Duration(scanned)*scanCost + sim.Duration(stolen)*writebackDelay
		if cost > 0 {
			n.rxCore.Submit(cpu.Kernel, cost, nil)
		}
	})
	n.kswapd = n.Eng.Every(kswapdPeriod, func() {
		n.Phys.KswapdPass()
	})
}

// Kswapd returns the node's background reclaimer handle (nil when the
// node's memory is unbounded).
func (n *Node) Kswapd() *sim.Recurring { return n.kswapd }
