package ethernet_test

import (
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/omx"
	"omxsim/internal/sim"
)

// TestMinLatency: on the default link and on a 2 µs one, the fabric's
// minimum frame latency is the tx overhead plus PropDelay plus the
// interrupt delay every omx node sets, and no zero-byte frame on an idle
// lane reaches its handler sooner: not across the wire, not over the
// fast loopback path, and not from a NIC whose degradation window raises
// its bandwidth far past the link's.
func TestMinLatency(t *testing.T) {
	for _, prop := range []sim.Duration{500 * sim.Nanosecond, 2 * sim.Microsecond} {
		eng := sim.NewEngine(1)
		link := ethernet.DefaultLinkConfig()
		link.PropDelay = prop
		f := ethernet.NewFabric(eng, link)
		f.LoopbackBytesPerSec = 1e15
		a := omx.NewNode(eng, f, cpu.XeonE5460, 0)
		b := omx.NewNode(eng, f, cpu.XeonE5460, 1)
		want := ethernet.TxOverhead + prop + omx.DefaultIntrDelay
		if got := f.MinLatency(); got != want {
			t.Fatalf("PropDelay %v: MinLatency %v, want %v", prop, got, want)
		}
		for _, c := range []struct {
			name    string
			src     *omx.Node
			dst     int
			degrade bool
		}{
			{"wire", a, 1, false},
			{"loopback", a, 0, false},
			{"degraded 1000x", b, 0, true},
		} {
			var at sim.Time = -1
			for _, n := range []*omx.Node{a, b} {
				n.NIC.SetHandler(func(*ethernet.Frame) { at = eng.Now() })
			}
			if c.degrade {
				c.src.NIC.SetDegraded(ethernet.Degrade{BandwidthFactor: 1000})
			}
			sent := eng.Now()
			c.src.NIC.Send(&ethernet.Frame{Dst: c.dst})
			eng.Run()
			if c.degrade {
				c.src.NIC.ClearDegraded()
			}
			if at < 0 {
				t.Fatalf("PropDelay %v, %s: frame not delivered", prop, c.name)
			}
			if got := at - sent; got < want {
				t.Errorf("PropDelay %v, %s: delivered after %v, before the minimum %v", prop, c.name, got, want)
			}
		}
	}
}
