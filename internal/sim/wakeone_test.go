package sim

import "testing"

// Wake-one semantics audit: Queue.Push wakes exactly one waiter per item,
// Mesa-style — the woken waiter re-checks the condition and may find that
// a TryPop interloper (or an earlier waiter) took the item between the
// wake being scheduled and the waiter running. The contract under test:
// such a waiter re-parks on the waiter list and IS re-woken by the next
// Push. A stranded waiter (parked forever while items flow) would
// deadlock the simulation.

// TestQueueWokenWaiterLosesToTryPopInterloper: the wake is in flight when
// an interloper steals the item; the next Push must re-wake the waiter.
func TestQueueWokenWaiterLosesToTryPopInterloper(t *testing.T) {
	e := NewEngine(1)
	q := &Queue[int]{}
	var got []int
	done := false
	e.Go("waiter", func(p *Proc) {
		got = append(got, q.Pop(p))
		done = true
	})
	e.After(10, func() {
		q.Push(e, 1) // wakes the waiter (event in flight)...
		v, ok := q.TryPop()
		if !ok || v != 1 {
			t.Errorf("interloper TryPop = %d,%v, want 1,true", v, ok)
		}
	})
	e.After(20, func() {
		// The waiter saw an empty queue and re-parked; this Push must
		// re-wake it.
		q.Push(e, 2)
	})
	e.Run()
	if !done || len(got) != 1 || got[0] != 2 {
		t.Fatalf("waiter done=%v got=%v, want [2]", done, got)
	}
}

// TestQueueSecondPushWhileWakeInFlight: a Push arriving while a woken
// waiter has not yet run sees an empty waiter list and wakes nobody; the
// already-woken waiter must consume that item when it runs.
func TestQueueSecondPushWhileWakeInFlight(t *testing.T) {
	e := NewEngine(1)
	q := &Queue[int]{}
	var got []int
	e.Go("waiter", func(p *Proc) {
		got = append(got, q.Pop(p))
		got = append(got, q.Pop(p))
	})
	e.After(10, func() {
		q.Push(e, 1)
		// Steal item 1 and push 2 and 3 before the wake fires: the woken
		// waiter must find them.
		q.TryPop()
		q.Push(e, 2)
		q.Push(e, 3)
	})
	e.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("got %v, want [2 3]", got)
	}
}

// TestQueueTwoWaitersInterleavedSteals: with several parked waiters and
// repeated steals, every pushed-and-not-stolen item must reach some waiter
// and no waiter may be left parked while items remain.
func TestQueueTwoWaitersInterleavedSteals(t *testing.T) {
	e := NewEngine(1)
	q := &Queue[int]{}
	var got []int
	for w := 0; w < 2; w++ {
		e.Go("waiter", func(p *Proc) {
			for i := 0; i < 2; i++ {
				got = append(got, q.Pop(p))
			}
		})
	}
	next := 1
	for i := 0; i < 4; i++ {
		steal := i%2 == 0
		e.After(Duration(10*(i+1)), func() {
			q.Push(e, next)
			next++
			if steal {
				// Steal it and push a replacement: the woken waiter races
				// the replacement's wake.
				q.TryPop()
				q.Push(e, next)
				next++
			}
		})
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("waiters consumed %d items (%v), want 4", len(got), got)
	}
	if q.Len() != 0 {
		t.Fatalf("queue still holds %d items", q.Len())
	}
}
