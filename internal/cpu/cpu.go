// Package cpu models processor cores as non-preemptive, priority-queued
// servers of timed work items.
//
// The model captures the two CPU effects the paper depends on:
//
//   - memory pinning costs CPU time (Table 1: a base cost plus a per-page
//     cost that scales inversely with clock speed), and
//   - interrupt bottom-half processing preempts (here: is queued ahead of)
//     everything else on a core, so a flooded core pins slowly and causes
//     overlap misses (paper §4.3).
//
// A Core executes one work item at a time; queued items are ordered by
// priority then FIFO. Items are expected to be small (per-packet handlers,
// per-chunk pin batches), which approximates preemption closely enough for
// the throughput phenomena under study.
package cpu

import (
	"fmt"

	"omxsim/internal/sim"
)

// Priority orders work on a core. Lower values run first.
type Priority int

const (
	// BottomHalf is interrupt bottom-half (softirq) work: packet RX
	// processing. It starves everything else on the core, which is exactly
	// the overload scenario of paper §4.3.
	BottomHalf Priority = iota
	// Kernel is syscall-context and deferred driver work, e.g. on-demand
	// page pinning.
	Kernel
	// User is application compute.
	User
	numPriorities
)

// String names the priority level.
func (p Priority) String() string {
	switch p {
	case BottomHalf:
		return "bottomhalf"
	case Kernel:
		return "kernel"
	case User:
		return "user"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// Spec describes a host CPU with the pinning costs measured in Table 1 of
// the paper. PinBase and PinPerPage are the *combined* pin+unpin costs; the
// split between the two halves is given by PinShare.
type Spec struct {
	Name       string
	GHz        float64
	PinBase    sim.Duration // combined pin+unpin base overhead
	PinPerPage sim.Duration // combined pin+unpin cost per 4 KiB page
	// PinShare is the fraction of the combined cost charged to the pin
	// operation; the remainder is charged to unpin. get_user_pages (fault +
	// refcount) dominates put_page, hence > 0.5.
	PinShare float64
	// CopyBytesPerSec is the on-core memcpy bandwidth for RX copies into
	// user buffers (cold destination, read+write traffic).
	CopyBytesPerSec float64
	Cores           int
}

// Host presets from Table 1 of the paper. Copy bandwidth scales roughly with
// clock speed; the E5460 value is calibrated so that the no-I/OAT PingPong
// curve saturates near the paper's figure 6 level.
var (
	Opteron265 = Spec{
		Name: "Opteron 265", GHz: 1.8,
		PinBase: 4200, PinPerPage: 720, PinShare: 0.6,
		CopyBytesPerSec: 0.65e9, Cores: 4,
	}
	Opteron8347 = Spec{
		Name: "Opteron 8347", GHz: 1.9,
		PinBase: 2200, PinPerPage: 330, PinShare: 0.6,
		CopyBytesPerSec: 0.80e9, Cores: 8,
	}
	XeonE5435 = Spec{
		Name: "Xeon E5435", GHz: 2.33,
		PinBase: 2300, PinPerPage: 250, PinShare: 0.6,
		CopyBytesPerSec: 0.95e9, Cores: 8,
	}
	XeonE5460 = Spec{
		Name: "Xeon E5460", GHz: 3.16,
		PinBase: 1300, PinPerPage: 150, PinShare: 0.6,
		CopyBytesPerSec: 1.15e9, Cores: 8,
	}
)

// Table1Hosts lists the presets in the order of Table 1 in the paper.
func Table1Hosts() []Spec {
	return []Spec{Opteron265, Opteron8347, XeonE5435, XeonE5460}
}

// PinCost returns the CPU time to pin n pages (the pin half of the combined
// Table 1 cost).
func (s Spec) PinCost(pages int) sim.Duration {
	return scale(s.PinBase, s.PinShare) + sim.Duration(pages)*scale(s.PinPerPage, s.PinShare)
}

// UnpinCost returns the CPU time to unpin n pages.
func (s Spec) UnpinCost(pages int) sim.Duration {
	return scale(s.PinBase, 1-s.PinShare) + sim.Duration(pages)*scale(s.PinPerPage, 1-s.PinShare)
}

// PinUnpinCost returns the combined cost to pin and later unpin n pages,
// which is what Table 1 reports.
func (s Spec) PinUnpinCost(pages int) sim.Duration {
	return s.PinBase + sim.Duration(pages)*s.PinPerPage
}

// CopyCost returns the CPU time for an on-core copy of n bytes.
func (s Spec) CopyCost(bytes int) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(float64(bytes) / s.CopyBytesPerSec * 1e9)
}

func scale(d sim.Duration, f float64) sim.Duration {
	return sim.Duration(float64(d)*f + 0.5)
}

// workItem is one queued unit of core time: fn(arg) runs when it
// completes.
type workItem struct {
	dur  sim.Duration
	fn   func(any)
	arg  any
	prio Priority
}

// ringMin is the length of a priority queue's array outside bursts.
const ringMin = 16

// ring is one priority level's FIFO of work items: a circular buffer whose
// array doubles when full and keeps its size for the rest of the run, so a
// backlog that recurs message after message (frames arriving faster than
// the bottom half copies them) grows it once. Machine.DropQueues lets the
// array go when the run ends.
type ring struct {
	buf  []workItem // len is zero or a power of two
	head int
	n    int
}

func (r *ring) push(it workItem) {
	if r.n == len(r.buf) {
		buf := make([]workItem, max(2*len(r.buf), ringMin))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = it
	r.n++
}

func (r *ring) pop() workItem {
	it := r.buf[r.head]
	r.buf[r.head] = workItem{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return it
}

// Core is a single processor core: a non-preemptive server with one FIFO
// queue per priority level.
type Core struct {
	eng    *sim.Engine
	spec   Spec
	id     int
	queues [numPriorities]ring
	busy   bool

	// running is the item currently executing; finish is finishItem, bound
	// on the core's first dispatch so that dispatching schedules no new
	// closure and a core that never works costs none.
	running workItem
	finish  func()

	// accounting
	busyTime  [numPriorities]sim.Duration
	completed [numPriorities]uint64
}

// Machine is a set of cores sharing a Spec.
type Machine struct {
	Spec  Spec
	cores []*Core
}

// NewMachine builds a machine with spec.Cores cores on the engine.
func NewMachine(eng *sim.Engine, spec Spec) *Machine {
	if spec.Cores <= 0 {
		panic("cpu: spec with no cores")
	}
	m := &Machine{Spec: spec}
	for i := 0; i < spec.Cores; i++ {
		m.cores = append(m.cores, &Core{eng: eng, spec: spec, id: i})
	}
	return m
}

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// NumCores reports the number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// DropQueues lets go of the array of every empty work queue on the
// machine's cores, which otherwise keeps the size of the largest backlog
// it has held. A run's end calls it, so a finished simulation holds no
// queue sized for its bursts.
func (m *Machine) DropQueues() {
	for _, c := range m.cores {
		for prio := range c.queues {
			if q := &c.queues[prio]; q.n == 0 {
				*q = ring{}
			}
		}
	}
}

// ID returns the core index within its machine.
func (c *Core) ID() int { return c.id }

// Spec returns the host spec the core was built with.
func (c *Core) Spec() Spec { return c.spec }

// BusyTime reports accumulated execution time at priority p.
func (c *Core) BusyTime(p Priority) sim.Duration { return c.busyTime[p] }

// Completed reports how many items have finished at priority p.
func (c *Core) Completed(p Priority) uint64 { return c.completed[p] }

// Submit queues dur nanoseconds of work at priority prio; fn (which may be
// nil) runs when the work completes. Work at a higher priority that is
// queued while this item waits will run first, but a running item is never
// preempted.
func (c *Core) Submit(prio Priority, dur sim.Duration, fn func()) {
	c.SubmitArg(prio, dur, call, fn)
}

// call runs the func() that Submit stored as an item's argument. A func
// value fits in an interface without allocating.
func call(fn any) {
	if fn := fn.(func()); fn != nil {
		fn()
	}
}

// SubmitArg is Submit for a callback that takes an argument: fn(arg) runs
// when the work completes (fn may be nil). A callback bound once and a
// pointer argument let a caller queue work without allocating a closure.
func (c *Core) SubmitArg(prio Priority, dur sim.Duration, fn func(any), arg any) {
	if dur < 0 {
		panic(fmt.Sprintf("cpu: negative work duration %d", dur))
	}
	if prio < 0 || prio >= numPriorities {
		panic(fmt.Sprintf("cpu: bad priority %d", prio))
	}
	c.queues[prio].push(workItem{dur: dur, fn: fn, arg: arg, prio: prio})
	if !c.busy {
		c.dispatch()
	}
}

// Exec blocks the calling simulated process until dur nanoseconds of core
// time at priority prio have been spent (including any queueing delay).
func (c *Core) Exec(p *sim.Proc, prio Priority, dur sim.Duration) {
	done := &sim.Completion{}
	c.Submit(prio, dur, func() { done.Complete(c.eng, nil) })
	done.Wait(p)
}

// dispatch starts the first item of the highest non-empty priority.
func (c *Core) dispatch() {
	for prio := range c.queues {
		if q := &c.queues[prio]; q.n > 0 {
			c.busy = true
			c.running = q.pop()
			if c.finish == nil {
				c.finish = c.finishItem
			}
			c.eng.After(c.running.dur, c.finish)
			return
		}
	}
}

// finishItem completes the running work item: it accounts the time, runs
// the item's callback, and dispatches the next item. Exactly one item runs
// at a time, so the running slot is safe to reuse.
func (c *Core) finishItem() {
	item := c.running
	c.running = workItem{}
	c.busy = false
	c.busyTime[item.prio] += item.dur
	c.completed[item.prio]++
	if item.fn != nil {
		item.fn(item.arg)
	}
	if !c.busy { // fn may have submitted and triggered dispatch
		c.dispatch()
	}
}

// Utilization returns the fraction of time [0,1] the core has been busy
// since the start of the simulation, as of now.
func (c *Core) Utilization() float64 {
	now := c.eng.Now()
	if now == 0 {
		return 0
	}
	var total sim.Duration
	for p := Priority(0); p < numPriorities; p++ {
		total += c.busyTime[p]
	}
	return float64(total) / float64(now)
}
