// sharded_test.go regression-tests the per-NIC state split that makes
// the fabric safe to drive from multiple engine shards: per-source link
// serialization state (txBusy) and per-NIC loss RNGs. Both tests fail on
// the pre-shard code (fabric-global linkBusy map, engine-shared RNG).
package ethernet

import (
	"testing"

	"omxsim/internal/sim"
)

// dropPattern records which of n sequentially-sent frames from NIC src
// are dropped, with `others` extra NICs also sending one frame each
// between src's sends (traffic that must not perturb src's loss stream).
func dropPattern(t *testing.T, n, others int) []bool {
	t.Helper()
	e := sim.NewEngine(1)
	cfg := DefaultLinkConfig()
	cfg.DropProb = 0.5
	f := NewFabric(e, cfg)
	f.Seed = 42
	src := f.AddNIC(0, 0)
	f.AddNIC(1, 0).SetHandler(func(*Frame) {})
	for i := 0; i < others; i++ {
		f.AddNIC(2+i, 0).SetHandler(func(*Frame) {})
	}
	pattern := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		before := src.Dropped()
		src.Send(&Frame{Dst: 1, Size: 100})
		pattern = append(pattern, src.Dropped() > before)
		for o := 0; o < others; o++ {
			f.NIC(2 + o).Send(&Frame{Dst: 1, Size: 100})
		}
	}
	e.Run()
	return pattern
}

// TestPerNICLossStreamsIndependent checks a node's frame-loss sequence is
// a function of (fabric seed, node ID) alone: adding other senders to the
// fabric must not change which of its frames drop. The old implementation
// drew from the engine's shared RNG, so any interleaved sender shifted
// everyone else's loss pattern — and with shards, the pattern depended on
// nondeterministic cross-shard interleaving.
func TestPerNICLossStreamsIndependent(t *testing.T) {
	alone := dropPattern(t, 64, 0)
	crowded := dropPattern(t, 64, 3)
	for i := range alone {
		if alone[i] != crowded[i] {
			t.Fatalf("frame %d: dropped=%v alone but %v with other senders — loss stream not per-NIC", i, alone[i], crowded[i])
		}
	}
	// Sanity: with p=0.5 over 64 frames both outcomes must occur.
	drops := 0
	for _, d := range alone {
		if d {
			drops++
		}
	}
	if drops == 0 || drops == len(alone) {
		t.Fatalf("degenerate drop pattern (%d/%d): RNG not exercised", drops, len(alone))
	}
}

// TestPerNICSeedsDiffer checks distinct nodes get distinct loss streams
// from one fabric seed.
func TestPerNICSeedsDiffer(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultLinkConfig()
	cfg.DropProb = 0.5
	f := NewFabric(e, cfg)
	f.Seed = 42
	a, b := f.AddNIC(0, 0), f.AddNIC(1, 0)
	a.SetHandler(func(*Frame) {})
	b.SetHandler(func(*Frame) {})
	same := true
	for i := 0; i < 64 && same; i++ {
		da, db := a.Dropped(), b.Dropped()
		a.Send(&Frame{Dst: 1, Size: 100})
		b.Send(&Frame{Dst: 0, Size: 100})
		same = (a.Dropped() > da) == (b.Dropped() > db)
	}
	e.Run()
	if same {
		t.Fatal("nodes 0 and 1 share one loss stream")
	}
}

// TestFabricShardedSendsRaceFree drives two NICs on two engine shards
// concurrently, ping-ponging frames through the shard router. Under `go
// test -race` this catches any fabric state shared between sending NICs —
// the old fabric-global linkBusy map made every concurrent Send a data
// race.
func TestFabricShardedSendsRaceFree(t *testing.T) {
	ea, eb := sim.NewEngine(1), sim.NewEngine(1)
	cfg := DefaultLinkConfig() // 500ns PropDelay = lookahead
	ss := sim.NewShardSet(cfg.PropDelay, []*sim.Engine{ea, eb})
	f := NewFabric(ea, cfg)
	f.Seed = 1
	a := f.AddNICOn(ea, 0, 0)
	b := f.AddNICOn(eb, 1, 0)
	f.SetRouter(func(fr *Frame, deliver func(), when, sendTime sim.Time, srcSeq uint64) {
		dstShard := fr.Dst // node i lives on shard i
		ss.Post(sim.CrossEvent{
			When: when, SendTime: sendTime,
			SrcShard: fr.Src, DstShard: dstShard,
			SrcNode: fr.Src, DstNode: fr.Dst, SrcSeq: srcSeq,
			Fn: deliver,
		})
	})
	const rounds = 200
	a.SetHandler(func(fr *Frame) {
		if a.RxFrames() < rounds {
			a.Send(&Frame{Dst: 1, Size: 1000})
		}
	})
	b.SetHandler(func(fr *Frame) {
		if b.RxFrames() < rounds {
			b.Send(&Frame{Dst: 0, Size: 1000})
		}
	})
	// Both shards transmit in every window: each NIC streams its own
	// clock-driven sends in addition to the ping-pong.
	ea.At(1, func() { a.Send(&Frame{Dst: 1, Size: 1000}) })
	eb.At(1, func() { b.Send(&Frame{Dst: 0, Size: 1000}) })
	ss.Run()
	if a.RxFrames() < rounds || b.RxFrames() < rounds {
		t.Fatalf("rx counts %d/%d, want >= %d each", a.RxFrames(), b.RxFrames(), rounds)
	}
}
