package sim

import "fmt"

// Recurring is a periodic background task on the engine — the modeling
// primitive for kernel daemons like kswapd that run forever on a timer.
// Its events are daemon events: they fire in timestamp order like any
// other event while foreground work exists, but they never keep Run alive
// on their own, so a simulation still terminates when the workload drains.
type Recurring struct {
	eng    *Engine
	period Duration
	fn     func()
	// tickFn is tick bound once, so re-arming schedules no new closure.
	tickFn  func()
	ev      Event
	stopped bool
	runs    uint64
}

// Every schedules fn to run every period nanoseconds of simulated time,
// starting one period from now, as daemon work. Stop the returned handle
// to cancel it.
func (e *Engine) Every(period Duration, fn func()) *Recurring {
	if period <= 0 {
		panic(fmt.Sprintf("sim: recurring period %d", period))
	}
	r := &Recurring{eng: e, period: period, fn: fn}
	r.tickFn = r.tick
	r.arm()
	return r
}

func (r *Recurring) arm() { r.ev = r.eng.schedule(r.eng.now+r.period, r.tickFn, true) }

func (r *Recurring) tick() {
	r.runs++
	r.fn()
	if !r.stopped {
		r.arm()
	}
}

// Stop cancels the recurring task; the callback will not fire again.
// Stopping an already-stopped task is a no-op. Called from inside the
// callback, Stop cancels only the re-arm: the fired tick's handle is
// stale, so events the callback scheduled still fire.
func (r *Recurring) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.ev.Cancel()
}

// Runs reports how many times the callback has fired.
func (r *Recurring) Runs() uint64 { return r.runs }
