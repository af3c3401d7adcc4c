package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"omxsim/internal/sim"
)

// spanLog keeps the traced run's spans in memory and writes them out as
// Chrome trace-event JSON. Host spans live in trace process 0 on a host-µs
// clock; each rep's simulated spans get a trace process of their own on a
// simulated-µs clock, one thread per rank. A nil *spanLog records nothing,
// which is how untraced runs pay nothing for the calls.
type spanLog struct {
	start  time.Time
	events []traceEvent
	// rep is the trace process simulated spans are filed under.
	rep int
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newSpanLog() *spanLog {
	s := &spanLog{start: time.Now()}
	s.meta(0, "host")
	return s
}

// meta names trace process pid.
func (s *spanLog) meta(pid int, name string) {
	s.events = append(s.events, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}})
}

// beginRep files the simulated spans that follow under a new trace process.
func (s *spanLog) beginRep(i int, seed int64) {
	if s == nil {
		return
	}
	s.rep = i + 1
	s.meta(s.rep, fmt.Sprintf("rep %d (seed %d), simulated time", i, seed))
}

// host records a host-time span from t0 to now.
func (s *spanLog) host(name string, t0 time.Time) {
	if s == nil {
		return
	}
	s.events = append(s.events, traceEvent{Name: name, Ph: "X",
		Ts:  float64(t0.Sub(s.start).Nanoseconds()) / 1e3,
		Dur: float64(time.Since(t0).Nanoseconds()) / 1e3})
}

// simSpan records one rank's operation between simulated times t0 and t1.
func (s *spanLog) simSpan(rank int, op string, size int, t0, t1 sim.Time) {
	if s == nil {
		return
	}
	s.events = append(s.events, traceEvent{Name: op, Ph: "X", Pid: s.rep, Tid: rank,
		Ts: t0.Micros(), Dur: (t1 - t0).Micros(), Args: map[string]any{"bytes": size}})
}

func (s *spanLog) write(path string) error {
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{s.events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
