package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a coroutine whose execution is interleaved
// with the event loop such that exactly one of {engine, some proc} runs at a
// time. Blocking operations (Sleep, Completion.Wait, channel helpers) park
// the coroutine and hand control back to the engine, which resumes it when
// the corresponding event fires. Because handoff is strictly sequential the
// whole simulation stays deterministic and data-race free without locks,
// and a panic inside a process unwinds into the event that resumed it, so
// it reaches the caller of Run like a panic in any other event.
type Proc struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// resume is run bound once, so parking schedules no new closure.
	resume func()
}

// Name returns the label the process was started with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Go starts fn as a simulated process. The process begins executing at the
// current simulated time (as an immediate event) and may outlive the caller's
// stack frame; Run drives it to completion along with everything else.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	p.resume = p.run
	e.After(0, p.resume)
	return p
}

// run resumes the process and returns when it parks again or finishes. It
// must be called from an event handler.
func (p *Proc) run() { p.next() }

// park suspends the process until a subsequent event calls run. It must be
// called from the process itself.
func (p *Proc) park() { p.yield(struct{}{}) }

// Sleep suspends the process for d nanoseconds of simulated time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Proc.Sleep negative duration %d", d))
	}
	p.eng.After(d, p.resume)
	p.park()
}

// Yield reschedules the process at the current time, letting other events
// and processes scheduled for this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Completion is a one-shot future that processes can block on and event
// handlers can complete. The zero value is ready to use.
type Completion struct {
	done bool
	err  error
	// waiter is the first waiter, kept inline because most completions
	// have exactly one; waiters holds any later ones, in arrival order.
	waiter  func()
	waiters []func()
}

// Done reports whether Complete has been called.
func (c *Completion) Done() bool { return c.done }

// Err returns the error the completion finished with, if any.
func (c *Completion) Err() error { return c.err }

// Complete marks the completion done and wakes all waiters (as immediate
// events, preserving FIFO order). Completing twice panics: it means two
// owners thought they were responsible for the same request.
func (c *Completion) Complete(e *Engine, err error) {
	if c.done {
		panic("sim: Completion completed twice")
	}
	c.done = true
	c.err = err
	if c.waiter != nil {
		e.After(0, c.waiter)
	}
	for _, w := range c.waiters {
		e.After(0, w)
	}
	c.waiter, c.waiters = nil, nil
}

// await registers w to run when the completion finishes.
func (c *Completion) await(w func()) {
	if c.waiter == nil {
		c.waiter = w
	} else {
		c.waiters = append(c.waiters, w)
	}
}

// OnDone registers fn to run when the completion finishes (immediately, as
// an event, if it already has).
func (c *Completion) OnDone(e *Engine, fn func()) {
	if c.done {
		e.After(0, fn)
		return
	}
	c.await(fn)
}

// Wait blocks the process until the completion is done and returns its error.
func (c *Completion) Wait(p *Proc) error {
	if c.done {
		return c.err
	}
	c.await(p.resume)
	p.park()
	return c.err
}

// WaitAll blocks until every completion in cs is done and returns the first
// non-nil error encountered (in slice order).
func WaitAll(p *Proc, cs ...*Completion) error {
	for _, c := range cs {
		c.Wait(p)
	}
	for _, c := range cs {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// Queue is an unbounded FIFO that simulated processes can block on. Items
// are delivered in insertion order; waiting processes are woken in arrival
// order.
//
// Wake-one semantics are Mesa-style: Push wakes one waiter, but the wake is
// a hint, not a handoff — a TryPop interloper (or another waiter) may take
// the item before the woken process runs. The woken process re-checks, and
// on failure re-parks on the waiter list, where the next Push wakes it
// again; a losing waiter is never stranded (see wakeone_test.go).
type Queue[T any] struct {
	items   []T
	waiters []func()
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push appends an item and wakes the oldest waiter, if any.
func (q *Queue[T]) Push(e *Engine, v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		var w func()
		w, q.waiters = popFront(q.waiters)
		e.After(0, w)
	}
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v, q.items = popFront(q.items)
	return v, true
}

// popFront removes and returns s's first element. A slice that empties
// keeps its array, so a queue that goes back and forth between empty and
// one entry does not allocate.
func popFront[T any](s []T) (T, []T) {
	v := s[0]
	var zero T
	s[0] = zero
	if len(s) == 1 {
		return v, s[:0]
	}
	return v, s[1:]
}

// Pop blocks the process until an item is available, then removes and
// returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.waiters = append(q.waiters, p.resume)
		p.park()
	}
}
