package omx

import (
	"testing"

	"omxsim/internal/policy"
)

// TestAdvisePinsAhead drives the user-facing hint path end to end: under
// the pin-ahead backend, Advise alone — before any communication — must
// leave the buffer pinned, so the transfer's acquire finds it ready.
func TestAdvisePinsAhead(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.PinAhead, true))
	const n = 1 << 20
	buf, err := p.a.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}

	p.a.Advise(buf, n)
	p.eng.Run()

	if got := p.a.Manager().PinnedPages(); got != n/4096 {
		t.Fatalf("Advise pinned %d pages, want %d", got, n/4096)
	}
	st := p.a.Manager().Stats()
	if st.SpeculativePins == 0 {
		t.Fatal("Advise-driven pin not counted as speculative")
	}
	if st.AcquiresPinned != 0 || st.AcquiresUnpinned != 0 {
		t.Fatal("Advise must not acquire the region")
	}

	// The transfer that follows must hit both the declaration cache and
	// the already-complete pin.
	rbuf, err := p.b.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	recv := p.b.Irecv(rbuf, n, 1, ^uint64(0))
	send := p.a.Isend(buf, n, 1, p.b.Addr())
	p.eng.Run()
	if !send.Done() || !recv.Done() || send.Err != nil || recv.Err != nil {
		t.Fatalf("transfer after Advise failed: send=%v recv=%v", send.Err, recv.Err)
	}
	if hits := p.a.Cache().Stats().Hits; hits == 0 {
		t.Fatal("send after Advise missed the declaration cache")
	}
	if got := p.a.Manager().Stats().AcquiresPinned; got == 0 {
		t.Fatal("send after Advise did not find the region pre-pinned")
	}
}

// TestAdviseIsHintOnly: under a policy that does not pin at declare,
// Advise warms the declaration cache but pins nothing — and a bad hint
// is silently ignored rather than failing anything.
func TestAdviseIsHintOnly(t *testing.T) {
	p := newPair(t, DefaultConfig(policy.OnDemand, true))
	const n = 512 * 1024
	buf, err := p.a.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	p.a.Advise(buf, n)
	p.a.Advise(0xdead0000, 4096) // bogus hint: declaration succeeds, pin would fail later
	p.eng.Run()
	if got := p.a.Manager().PinnedPages(); got != 0 {
		t.Fatalf("on-demand Advise pinned %d pages", got)
	}
	if declares := p.a.Manager().Stats().Declares; declares == 0 {
		t.Fatal("Advise did not warm the declaration cache")
	}
}
