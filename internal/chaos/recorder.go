package chaos

import (
	"omxsim/internal/report"
	"omxsim/internal/sim"
)

// Recorder buckets one node's chaos activity into fixed simulated-time
// intervals for the stress report. Each node gets its own recorder,
// touched only by events on that node's engine, so no locking is needed
// in sharded runs; the scenario runner merges per-node recorders in node
// order after the run, which keeps the merged series deterministic.
type Recorder struct {
	interval sim.Duration
	buckets  []report.ChaosInterval
}

// NewRecorder creates a recorder with the given bucket width (<= 0
// selects 1ms).
func NewRecorder(interval sim.Duration) *Recorder {
	if interval <= 0 {
		interval = sim.Millisecond
	}
	return &Recorder{interval: interval}
}

// Interval returns the bucket width.
func (r *Recorder) Interval() sim.Duration { return r.interval }

func (r *Recorder) bucket(t sim.Time) *report.ChaosInterval {
	i := int(t / sim.Time(r.interval))
	if i < 0 {
		i = 0
	}
	for len(r.buckets) <= i {
		r.buckets = append(r.buckets, report.ChaosInterval{})
	}
	return &r.buckets[i]
}

// Fault records a fault window opening at t.
func (r *Recorder) Fault(t sim.Time) { r.bucket(t).Faults++ }

// Recovery records a fault window restoring at t.
func (r *Recorder) Recovery(t sim.Time) { r.bucket(t).Recoveries++ }

// Abort records a request completing with an error at t.
func (r *Recorder) Abort(t sim.Time) { r.bucket(t).Aborts++ }

// PinChurn records pages pinned or unpinned at t.
func (r *Recorder) PinChurn(t sim.Time, pages int, pinned bool) {
	if pinned {
		r.bucket(t).PinPages += pages
	} else {
		r.bucket(t).UnpinPages += pages
	}
}

// Merge produces the cluster-wide series: element-wise sums of the
// per-node recorders, extended to the longest series. Integer sums in
// fixed node order are exact and order-independent, so the merged series
// is identical across shard counts.
func Merge(recs []*Recorder) []report.ChaosInterval {
	var out []report.ChaosInterval
	for _, r := range recs {
		if r == nil {
			continue
		}
		for len(out) < len(r.buckets) {
			out = append(out, report.ChaosInterval{})
		}
		for i, b := range r.buckets {
			out[i].Add(b)
		}
	}
	return out
}
