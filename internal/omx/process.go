package omx

import (
	"fmt"

	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/sim"
	"omxsim/internal/vm"
)

// Process models one application process on a node: an address space with
// its allocator, the driver-side region manager attached to it (with the
// MMU notifier, paper §3.1), and the user-space region cache. Endpoints
// opened in the same process share all of it — in particular the region
// cache, so a buffer declared through one endpoint is a cache hit on
// every other endpoint of the process (the paper's §3.2 cache is
// per-process, not per-endpoint).
type Process struct {
	node *Node
	pid  int
	cfg  Config

	core  *cpu.Core
	AS    *vm.AddressSpace
	Alloc *vm.Allocator
	mgr   *core.Manager
	cache *core.Cache

	eps []*Endpoint
}

// NewProcess creates a process on the node, bound to core coreIdx. The
// configuration applies to every endpoint later opened in it.
func (n *Node) NewProcess(pid, coreIdx int, cfg Config) (*Process, error) {
	cfg = cfg.withDefaults()
	if _, ok := core.EvictorByName(cfg.CacheEviction); !ok {
		return nil, fmt.Errorf("omx: unknown cache eviction policy %q (have %v)",
			cfg.CacheEviction, core.EvictorNames())
	}
	as := vm.NewAddressSpace(pid, n.Phys)
	alloc, err := vm.NewAllocator(as, 0, 64<<20)
	if err != nil {
		return nil, err
	}
	appCore := n.Machine.Core(coreIdx)
	mgr := core.NewManager(n.Eng, as, appCore, core.ManagerConfig{
		Policy:          cfg.Policy,
		PinnedPageLimit: cfg.PinnedPageLimit,
		PinChunkPages:   cfg.PinChunkPages,
	})
	cache := core.NewCache(n.Eng, mgr, appCore, core.CacheConfig{
		Enabled:      cfg.CacheEnabled,
		ByteCapacity: cfg.CacheByteCapacity,
		Eviction:     cfg.CacheEviction,
	})
	p := &Process{
		node:  n,
		pid:   pid,
		cfg:   cfg,
		core:  appCore,
		AS:    as,
		Alloc: alloc,
		mgr:   mgr,
		cache: cache,
	}
	// An invalidation that rips pins out from under live users must abort
	// the affected requests on every endpoint of the process.
	mgr.OnInvalidateInUse = func(r *core.Region) {
		for _, ep := range p.eps {
			ep.abortRegionUsers(r)
		}
	}
	return p, nil
}

// PID returns the process id.
func (p *Process) PID() int { return p.pid }

// Node returns the host the process runs on.
func (p *Process) Node() *Node { return p.node }

// Manager exposes the process's driver-side region manager.
func (p *Process) Manager() *core.Manager { return p.mgr }

// Cache exposes the process's shared user-space region cache.
func (p *Process) Cache() *core.Cache { return p.cache }

// Endpoints returns the endpoints currently open in the process.
func (p *Process) Endpoints() []*Endpoint { return p.eps }

// Config returns the process configuration.
func (p *Process) Config() Config { return p.cfg }

// detach removes a closing endpoint; the last one out tears down the
// driver state (cache notifier, region manager pins).
func (p *Process) detach(ep *Endpoint) {
	for i, x := range p.eps {
		if x == ep {
			p.eps = append(p.eps[:i], p.eps[i+1:]...)
			break
		}
	}
	if len(p.eps) == 0 {
		p.cache.Close()
		p.mgr.Close()
	}
}

// OpenEndpointIn opens endpoint epID inside an existing process, sharing
// its address space, allocator, region manager, and region cache. The
// endpoint's thread runs on core coreIdx (threads of one process may sit
// on different cores; cache and declare costs are charged on the calling
// thread's core).
func (n *Node) OpenEndpointIn(p *Process, epID, coreIdx int) (*Endpoint, error) {
	if p.node != n {
		return nil, fmt.Errorf("omx: process %d belongs to node %d, not node %d",
			p.pid, p.node.ID, n.ID)
	}
	if _, dup := n.endpoints[epID]; dup {
		return nil, fmt.Errorf("omx: endpoint %d already open on node %d", epID, n.ID)
	}
	ep := &Endpoint{
		node:        n,
		proc:        p,
		addr:        EndpointAddr{Node: n.ID, EP: epID},
		cfg:         p.cfg,
		core:        n.Machine.Core(coreIdx),
		AS:          p.AS,
		Alloc:       p.Alloc,
		sendSeq:     make(map[EndpointAddr]uint64),
		sends:       make(map[sendKey]*sendState),
		recvNext:    make(map[EndpointAddr]uint64),
		rstates:     make(map[msgKey]*rstate),
		activePulls: make(map[*rstate]struct{}),
	}
	ep.bh = ep.bottomHalf
	p.eps = append(p.eps, ep)
	n.endpoints[epID] = ep
	return ep, nil
}

// Compute blocks the process for d of application CPU time (workload
// computation on the process's core).
func (p *Process) Compute(pr *sim.Proc, d sim.Duration) {
	p.core.Exec(pr, cpu.User, d)
}
