// Package trace provides a lightweight structured event trace for the
// simulated stack: protocol milestones (rendezvous, pulls, notifies),
// pinning lifecycle (pin, unpin, invalidate, cache hit/miss), and overlap
// misses, all timestamped on the simulated clock. A Recorder is attached to
// endpoints or managers by the test/tool that wants visibility; when no
// recorder is attached the emit paths are nil-checked and free.
package trace

import (
	"fmt"
	"strings"

	"omxsim/internal/sim"
)

// Kind classifies trace events.
type Kind int

// Event kinds, grouped by subsystem.
const (
	// Protocol events.
	RndvSent Kind = iota
	RndvRecv
	PullReqSent
	PullReplySent
	FragAccepted
	OverlapMissSnd
	OverlapMissRcv
	ReRequest
	NotifySent
	MsgComplete
	// Pinning events.
	PinStart
	PinDone
	PinFail
	Unpin
	Invalidate
	CacheHit
	CacheMiss
	// OdpFault is one serviced ODP page-request round (A = pages
	// materialized, B = pages requested).
	OdpFault
	// CacheInvalidate is a cached declaration dropped because an
	// MMU-notifier invalidation overlapped it (A = vm.InvalidateReason).
	CacheInvalidate
	// Chaos / lifecycle events (A = node id).
	NodeCrash
	NodeRestart
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	names := [...]string{
		"rndv-sent", "rndv-recv", "pullreq-sent", "pullreply-sent",
		"frag-accepted", "overlap-miss-snd", "overlap-miss-rcv", "re-request",
		"notify-sent", "msg-complete",
		"pin-start", "pin-done", "pin-fail", "unpin", "invalidate",
		"cache-hit", "cache-miss", "odp-fault", "cache-invalidate",
		"node-crash", "node-restart",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timestamped trace record.
type Event struct {
	T    sim.Time
	Kind Kind
	// Node identifies the host the event happened on (-1 if not bound).
	Node int
	// Seq is the message sequence number for protocol events (0 otherwise).
	Seq uint64
	// A and B are kind-specific values (offset/length, pages, etc.).
	A, B int
}

// String renders the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("%-12v node%d %-17s seq=%-4d a=%-8d b=%d",
		e.T, e.Node, e.Kind, e.Seq, e.A, e.B)
}

// Recorder is a bounded ring of events. The zero value is unusable; create
// with NewRecorder. Not safe for real concurrency, which is fine: the
// simulation is single-threaded by construction.
type Recorder struct {
	events  []Event
	next    int
	wrapped bool
	dropped uint64
	counts  [numKinds]uint64
}

// NewRecorder returns a recorder keeping the last cap events (cap <= 0
// selects 4096).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Recorder{events: make([]Event, capacity)}
}

// Emit appends an event.
func (r *Recorder) Emit(ev Event) {
	if int(ev.Kind) < int(numKinds) {
		r.counts[ev.Kind]++
	}
	if r.next == len(r.events) {
		r.next = 0
		r.wrapped = true
	}
	if r.wrapped {
		r.dropped++
	}
	r.events[r.next] = ev
	r.next++
}

// Count reports how many events of kind k were emitted (including ones that
// fell out of the ring).
func (r *Recorder) Count(k Kind) uint64 { return r.counts[k] }

// Dropped reports how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Events returns the retained events in emission order.
func (r *Recorder) Events() []Event {
	if !r.wrapped {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Filter returns retained events of the given kinds, in order.
func (r *Recorder) Filter(kinds ...Kind) []Event {
	want := map[Kind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range r.Events() {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// Timeline renders the retained events as a multi-line string, optionally
// restricted to one message sequence (seq > 0).
func (r *Recorder) Timeline(seq uint64) string {
	var b strings.Builder
	for _, e := range r.Events() {
		if seq != 0 && e.Seq != seq {
			continue
		}
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
