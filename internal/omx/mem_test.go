package omx

import (
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/ethernet"
	"omxsim/internal/sim"
)

// TestConfigureMemoryRunsKswapd: a bounded node under allocation pressure
// has its kswapd wake on the watermark, reclaim toward the high
// watermark, and charge the scan/writeback cost as kernel work — without
// the daemon tick keeping the simulation alive after the workload drains.
func TestConfigureMemoryRunsKswapd(t *testing.T) {
	eng := sim.NewEngine(1)
	fabric := ethernet.NewFabric(eng, ethernet.DefaultLinkConfig())
	n := NewNode(eng, fabric, cpu.XeonE5460, 0)
	n.ConfigureMemory(MemConfig{Frames: 256})
	if n.Kswapd() == nil {
		t.Fatal("kswapd not started")
	}
	p, err := n.NewProcess(0, 1, DefaultConfig(nil, false))
	if err != nil {
		t.Fatal(err)
	}
	// Dip free frames below the low watermark (256/8 = 32): touch 230
	// pages, then give the workload enough simulated time for a few
	// kswapd periods.
	eng.Go("app", func(pr *sim.Proc) {
		addr, err := p.Alloc.Malloc(230 * 4096)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if err := p.AS.Write(addr, make([]byte, 230*4096)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		p.Compute(pr, 1*sim.Millisecond)
	})
	eng.Run()

	rs := n.Phys.ReclaimStats()
	if rs.KswapdRuns == 0 || rs.KswapdSteals == 0 {
		t.Fatalf("kswapd never reclaimed: %+v", rs)
	}
	if free := n.Phys.FreeFrames(); free < n.Phys.LowWatermark() {
		t.Fatalf("free = %d still below low watermark %d", free, n.Phys.LowWatermark())
	}
	if kernel := n.RxCore().BusyTime(cpu.Kernel); kernel == 0 {
		t.Fatal("reclaim cost was never charged as kernel work")
	}
	// The engine drained even though the kswapd ticker is still armed.
	if eng.Pending() == 0 {
		t.Fatal("expected the daemon tick to remain pending")
	}
}

// TestConfigureMemoryUnbounded: Frames == 0 leaves the node untouched.
func TestConfigureMemoryUnbounded(t *testing.T) {
	eng := sim.NewEngine(1)
	fabric := ethernet.NewFabric(eng, ethernet.DefaultLinkConfig())
	n := NewNode(eng, fabric, cpu.XeonE5460, 0)
	n.ConfigureMemory(MemConfig{})
	if n.Kswapd() != nil || n.Phys.Capacity() != 0 {
		t.Fatal("unbounded node grew reclaim state")
	}
}
