package cpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"omxsim/internal/sim"
)

// FuzzCoreQueue decodes a byte stream into work submitted at the three
// priorities — from the top level, now or at a chosen later time, and from
// inside completion callbacks, one item or a burst of up to 200 at a time —
// plays it on a Core and on refServer, a brute-force non-preemptive
// server, and checks that both start and finish every item at the same
// times, complete them in the same order, and agree on BusyTime and
// Completed per priority. Whenever the core idles, each ring must be
// empty, and once the run is over Machine.DropQueues must leave every ring
// without an array.
func FuzzCoreQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512] // the reference is quadratic in the backlog
		}
		e := sim.NewEngine(1)
		m := NewMachine(e, XeonE5460)
		c := m.Core(0)
		check := func() error {
			if c.busy {
				return nil
			}
			for prio, q := range c.queues {
				if q.n != 0 {
					return fmt.Errorf("idle core, %v ring: %d items", Priority(prio), q.n)
				}
			}
			return nil
		}
		got, err := playCore(e, c, check, data)
		if err != nil {
			t.Fatal(err)
		}
		m.DropQueues()
		for prio, q := range c.queues {
			if q.buf != nil || q.n != 0 {
				t.Fatalf("%v ring keeps an array of %d after DropQueues", Priority(prio), len(q.buf))
			}
		}
		re := sim.NewEngine(1)
		want, _ := playCore(re, &refServer{eng: re}, func() error { return nil }, data)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("step %d: core %+v, reference %+v", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("core trace has %d steps, reference %d", len(got), len(want))
		}
	})
}

// server is what playCore drives: the Core or the reference.
type server interface {
	Submit(prio Priority, dur sim.Duration, fn func())
	SubmitArg(prio Priority, dur sim.Duration, fn func(any), arg any)
	BusyTime(p Priority) sim.Duration
	Completed(p Priority) uint64
}

// refServer runs one item at a time, always the earliest submitted of the
// lowest priority that has any, found by scanning every queued item.
type refServer struct {
	eng       *sim.Engine
	queued    []refItem
	busy      bool
	busyTime  [numPriorities]sim.Duration
	completed [numPriorities]uint64
}

type refItem struct {
	prio Priority
	dur  sim.Duration
	fn   func()
}

func (r *refServer) Submit(prio Priority, dur sim.Duration, fn func()) {
	r.queued = append(r.queued, refItem{prio, dur, fn})
	if !r.busy {
		r.next()
	}
}

func (r *refServer) SubmitArg(prio Priority, dur sim.Duration, fn func(any), arg any) {
	r.Submit(prio, dur, func() { fn(arg) })
}

func (r *refServer) next() {
	best := -1
	for i, it := range r.queued {
		if best < 0 || it.prio < r.queued[best].prio {
			best = i
		}
	}
	if best < 0 {
		return
	}
	it := r.queued[best]
	r.queued = slices.Delete(r.queued, best, best+1)
	r.busy = true
	r.eng.After(it.dur, func() {
		r.busy = false
		r.busyTime[it.prio] += it.dur
		r.completed[it.prio]++
		it.fn()
		if !r.busy {
			r.next()
		}
	})
}

func (r *refServer) BusyTime(p Priority) sim.Duration { return r.busyTime[p] }
func (r *refServer) Completed(p Priority) uint64      { return r.completed[p] }

// coreDurations are the item durations the fuzzer draws from, 0–5,000 ns.
var coreDurations = []sim.Duration{0, 1, 7, 100, 999, 5000}

// coreDelays are the top-level submission delays.
var coreDelays = []sim.Duration{0, 1, 50, 1000, 20_000}

// coreMaxItems bounds one input's submissions.
const coreMaxItems = 3000

// coreStep is one line of a played trace: an item's completion, with its
// start and finish times (a non-preemptive server runs an item for exactly
// its duration), or one priority's BusyTime and Completed after a
// top-level operation.
type coreStep struct {
	what string
	id   int
	a, b int64
}

// corePlayer interprets a byte stream against a server. Top-level bytes
// submit work or advance the clock; each completing item reads one more
// byte that may make its callback submit work too.
type corePlayer struct {
	eng   *sim.Engine
	s     server
	data  []byte
	items []playItem
	trace []coreStep
	done  func(any)
}

type playItem struct {
	id  int
	dur sim.Duration
}

func playCore(eng *sim.Engine, s server, check func() error, data []byte) ([]coreStep, error) {
	p := &corePlayer{eng: eng, s: s, data: data}
	p.done = p.complete
	for len(p.data) > 0 {
		switch p.next() % 4 {
		case 0:
			p.submit(false)()
		case 1:
			p.submit(true)()
		case 2: // decode now, submit later
			d := coreDelays[int(p.next())%len(coreDelays)]
			eng.After(d, p.submit(p.next()%2 == 1))
		case 3:
			eng.RunUntil(eng.Now() + coreDelays[int(p.next())%len(coreDelays)])
		}
		if err := check(); err != nil {
			return p.trace, err
		}
		p.state()
	}
	eng.Run()
	if err := check(); err != nil {
		return p.trace, err
	}
	p.state()
	return p.trace, nil
}

func (p *corePlayer) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

// submit decodes one item, or a burst of 1–200, and returns the func that
// submits it. Odd items go through SubmitArg, even ones through Submit.
func (p *corePlayer) submit(burst bool) func() {
	n, prio, seed := 1, p.next(), p.next()
	if burst {
		n = 1 + int(p.next())%200
	}
	rng := rand.New(rand.NewSource(int64(prio)<<8 | int64(seed)))
	type sub struct {
		prio Priority
		playItem
	}
	subs := make([]sub, 0, n)
	for range n {
		if len(p.items) >= coreMaxItems {
			break
		}
		pr := Priority(prio % 3)
		if prio >= 128 { // mixed priorities
			pr = Priority(rng.Intn(3))
		}
		it := playItem{len(p.items), coreDurations[rng.Intn(len(coreDurations))]}
		p.items = append(p.items, it)
		subs = append(subs, sub{pr, it})
	}
	return func() {
		for _, s := range subs {
			if s.id%2 == 1 {
				p.s.SubmitArg(s.prio, s.dur, p.done, s.id)
			} else {
				id := s.id
				p.s.Submit(s.prio, s.dur, func() { p.complete(id) })
			}
		}
	}
}

func (p *corePlayer) complete(arg any) {
	it := p.items[arg.(int)]
	now := p.eng.Now()
	p.trace = append(p.trace, coreStep{"done", it.id, int64(now - it.dur), int64(now)})
	switch p.next() % 4 {
	case 1:
		p.submit(false)()
	case 2:
		p.submit(true)()
	}
}

func (p *corePlayer) state() {
	for prio := range numPriorities {
		p.trace = append(p.trace, coreStep{"state", int(prio),
			int64(p.s.BusyTime(prio)), int64(p.s.Completed(prio))})
	}
}
