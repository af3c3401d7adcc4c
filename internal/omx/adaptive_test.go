package omx

import (
	"testing"

	"omxsim/internal/ethernet"
	"omxsim/internal/policy"
	"omxsim/internal/sim"
	"omxsim/internal/trace"
)

// rndvSniffer records when the first rendezvous frame hits the wire.
func rndvSniffer(p *pair) *sim.Time {
	var at sim.Time = -1
	p.fabric.DropFilter = func(fr *ethernet.Frame) bool {
		if _, ok := fr.Payload.(*rndvMsg); ok && at < 0 {
			at = p.eng.Now()
		}
		return false
	}
	return &at
}

// TestAdaptiveOverlapBlockingVsNonBlocking verifies the paper's §5 idea:
// with AdaptiveOverlap, a blocking send releases its rendezvous immediately
// (pin overlapped), while a non-blocking send holds it until the region is
// fully pinned.
func TestAdaptiveOverlapBlockingVsNonBlocking(t *testing.T) {
	const n = 16 << 20 // 4096 pages: pin takes ~220us on the E5460
	run := func(blocking bool) sim.Time {
		cfg := DefaultConfig(policy.Overlapped, false)
		cfg.AdaptiveOverlap = true
		cfg.SyncPrefixPages = -1 // isolate the adaptive decision
		p := newPair(t, cfg)
		at := rndvSniffer(p)
		sbuf, _ := p.a.Malloc(n)
		rbuf, _ := p.b.Malloc(n)
		fill(t, p.a, sbuf, n, 1)
		p.eng.Go("s", func(pr *sim.Proc) {
			req := p.a.IsendVHint([]Segment{{Addr: sbuf, Len: n}}, 1, p.b.Addr(), blocking)
			p.a.Wait(pr, req)
		})
		p.eng.Go("r", func(pr *sim.Proc) {
			p.b.Wait(pr, p.b.Irecv(rbuf, n, 1, ^uint64(0)))
		})
		p.eng.Run()
		return *at
	}
	blockingRndv := run(true)
	nonblockingRndv := run(false)
	if blockingRndv < 0 || nonblockingRndv < 0 {
		t.Fatal("rendezvous never seen")
	}
	// Blocking: rndv leaves within a few microseconds (before the pin).
	if blockingRndv > 50*sim.Microsecond {
		t.Fatalf("blocking rndv at %v, expected overlapped (early)", blockingRndv)
	}
	// Non-blocking: rndv waits for the full ~220us pin.
	if nonblockingRndv < 150*sim.Microsecond {
		t.Fatalf("non-blocking rndv at %v, expected after the pin", nonblockingRndv)
	}
}

// TestSyncPrefixDelaysRendezvous verifies the §4.3 mitigation: with a sync
// prefix the rendezvous waits for the prefix pin; disabling it releases the
// rendezvous immediately.
func TestSyncPrefixDelaysRendezvous(t *testing.T) {
	const n = 16 << 20
	run := func(prefix int) sim.Time {
		cfg := DefaultConfig(policy.Overlapped, false)
		cfg.SyncPrefixPages = prefix
		p := newPair(t, cfg)
		at := rndvSniffer(p)
		sbuf, _ := p.a.Malloc(n)
		rbuf, _ := p.b.Malloc(n)
		fill(t, p.a, sbuf, n, 1)
		p.eng.Go("s", func(pr *sim.Proc) {
			p.a.Wait(pr, p.a.Isend(sbuf, n, 1, p.b.Addr()))
		})
		p.eng.Go("r", func(pr *sim.Proc) {
			p.b.Wait(pr, p.b.Irecv(rbuf, n, 1, ^uint64(0)))
		})
		p.eng.Run()
		return *at
	}
	withPrefix := run(2048) // half the region: a long wait
	noPrefix := run(-1)
	if withPrefix <= noPrefix {
		t.Fatalf("prefix=2048 rndv at %v, no-prefix at %v: prefix did not delay", withPrefix, noPrefix)
	}
}

// TestNoPinningEndToEnd runs a transfer under the QsNet-style policy: data
// flows correctly with zero pages ever pinned.
func TestNoPinningEndToEnd(t *testing.T) {
	cfg := DefaultConfig(policy.NoPinning, true)
	p := newPair(t, cfg)
	transfer(t, p, 4<<20)
	if p.a.Manager().Stats().PagesPinned != 0 || p.b.Manager().Stats().PagesPinned != 0 {
		t.Fatal("NoPinning pinned pages")
	}
	if p.a.Manager().PinnedPages() != 0 || p.b.Manager().PinnedPages() != 0 {
		t.Fatal("NoPinning left pages pinned")
	}
}

// TestNoPinningBeatsOrMatchesPermanent: the idealized upper bound must be at
// least as fast as the best pinning policy.
func TestNoPinningBeatsOrMatchesPermanent(t *testing.T) {
	measure := func(cfg Config) sim.Duration {
		p := newPair(t, cfg)
		return transfer(t, p, 8<<20)
	}
	nopin := measure(DefaultConfig(policy.NoPinning, true))
	perm := measure(DefaultConfig(policy.Permanent, true))
	if nopin > perm+perm/100 {
		t.Fatalf("NoPinning (%v) slower than Permanent (%v)", nopin, perm)
	}
}

// TestTraceProtocolOrdering records a full rendezvous transfer and asserts
// the paper's Figure 2/5 event ordering end to end.
func TestTraceProtocolOrdering(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.Overlapped, true))
	recA := trace.NewRecorder(0)
	recB := trace.NewRecorder(0)
	p.a.SetTrace(recA)
	p.b.SetTrace(recB)
	transfer(t, p, 2<<20)

	// Sender: pin starts, rendezvous leaves (after the sync prefix), pull
	// replies flow, message never overlap-misses.
	if recA.Count(trace.PinStart) == 0 || recA.Count(trace.RndvSent) == 0 ||
		recA.Count(trace.PullReplySent) == 0 {
		t.Fatalf("sender trace incomplete: %d/%d/%d",
			recA.Count(trace.PinStart), recA.Count(trace.RndvSent), recA.Count(trace.PullReplySent))
	}
	// Receiver: rndv received, pulls issued, frags accepted, notify sent,
	// message complete — strictly in that first-occurrence order.
	order := []trace.Kind{trace.RndvRecv, trace.PullReqSent, trace.FragAccepted,
		trace.NotifySent, trace.MsgComplete}
	first := map[trace.Kind]sim.Time{}
	for _, e := range recB.Events() {
		if _, seen := first[e.Kind]; !seen {
			first[e.Kind] = e.T
		}
	}
	for i := 1; i < len(order); i++ {
		ta, okA := first[order[i-1]]
		tb, okB := first[order[i]]
		if !okA || !okB {
			t.Fatalf("missing event kinds %v/%v", order[i-1], order[i])
		}
		if tb < ta {
			t.Fatalf("%v at %v before %v at %v", order[i], tb, order[i-1], ta)
		}
	}
	// Under overlapped pinning, the sender's rendezvous must leave before
	// its pin completes (that IS the overlap, Figure 5).
	rndv := recA.Filter(trace.RndvSent)[0].T
	pinDone := recA.Filter(trace.PinDone)[0].T
	if rndv >= pinDone {
		t.Fatalf("rndv at %v after pin-done at %v: no overlap", rndv, pinDone)
	}
}
