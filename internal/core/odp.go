package core

import (
	"omxsim/internal/cpu"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
	"omxsim/internal/vm"
)

// odpFaultLatency is the device→host page-request round trip (the PCIe
// PRI/ATS handshake an ODP-capable NIC performs) charged before the
// kernel's fault service for a batch of pages begins.
const odpFaultLatency = 3 * sim.Microsecond

// odpFault services an ODP page request: the NIC hit non-resident pages
// of region r (region page indexes in pages) and dropped the packet;
// the host now faults those pages in as kernel work on the manager's
// core. Pages with a request already in flight are not requested twice.
// The NIC side retries through the protocol's existing miss/re-request
// machinery — by the time it does, the pages are resident.
//
// The cost model mirrors pinning's page-walk half: the same per-page
// get_user_pages-style walk runs, minus the pin bookkeeping — which is
// exactly NP-RDMA's claim that ODP trades pin syscalls for fault
// round trips.
func (m *Manager) odpFault(r *Region, pages []int) {
	if r.odpPending == nil {
		r.odpPending = make(map[int]struct{})
	}
	var fresh []int
	for _, p := range pages {
		if _, inflight := r.odpPending[p]; inflight {
			continue
		}
		r.odpPending[p] = struct{}{}
		fresh = append(fresh, p)
	}
	if len(fresh) == 0 {
		return
	}
	cost := odpFaultLatency + sim.Duration(len(fresh))*perPagePin(m.spec)
	m.core.Submit(cpu.Kernel, cost, func() {
		for _, p := range fresh {
			delete(r.odpPending, p)
		}
		if m.find(r.id) < 0 {
			return // undeclared while the request was in flight
		}
		// Service the batch one contiguous run at a time (fresh is
		// ascending; consecutive region pages are virtually contiguous
		// within a segment). A read fault suffices for residency; a
		// device write through the live page table breaks COW at access
		// time, like any store. Unmapped pages (the buffer was freed)
		// stay missing; the transfer aborts through the unmap notifier.
		materialized := 0
		for i := 0; i < len(fresh); {
			si, pi := r.locatePageFrom(fresh[i])
			segRem := r.segPin[si].pages - pi
			j := i + 1
			for j < len(fresh) && fresh[j] == fresh[j-1]+1 && fresh[j]-fresh[i] < segRem {
				j++
			}
			addr := vm.PageAlignDown(r.segs[si].Addr) + vm.Addr(pi)<<vm.PageShift
			// An unmapped hole mid-run is tolerated: the pages faulted
			// before it still count, the rest stay missing.
			n, _ := m.as.Populate(addr, fresh[j-1]-fresh[i]+1)
			materialized += n
			i = j
		}
		m.stats.ODPFaults++
		m.stats.ODPFaultPages += uint64(materialized)
		m.emit(trace.OdpFault, uint64(r.id), materialized, len(fresh))
	})
}
