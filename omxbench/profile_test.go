package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// protoWriter encodes just enough protobuf to build test profiles.
type protoWriter struct{ b []byte }

func (w *protoWriter) varint(num int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|wireVarint)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *protoWriter) bytes(num int, v []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|wireBytes)
	w.b = binary.AppendUvarint(w.b, uint64(len(v)))
	w.b = append(w.b, v...)
}

func (w *protoWriter) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(num, p)
}

// testProfile builds a gzipped CPU profile. Each sample is a leaf-first
// stack of locations, each location a leaf-first list of (inlined)
// functions, and a CPU time in ms.
func testProfile(t *testing.T, samples []struct {
	stack [][]string
	ms    int
}) []byte {
	t.Helper()
	var p protoWriter
	strs := map[string]uint64{"": 0}
	order := []string{""}
	str := func(s string) uint64 {
		if i, ok := strs[s]; ok {
			return i
		}
		strs[s] = uint64(len(order))
		order = append(order, s)
		return strs[s]
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m protoWriter
		m.varint(valueTypeType, str(vt[0]))
		m.varint(valueTypeUnit, str(vt[1]))
		p.bytes(profSampleType, m.b)
	}
	funcs := map[string]uint64{}
	nextLoc := uint64(1)
	for i, s := range samples {
		var locs []uint64
		for _, loc := range s.stack {
			var m protoWriter
			m.varint(locationID, nextLoc)
			for _, fn := range loc {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f protoWriter
					f.varint(functionID, id)
					f.varint(functionName, str(fn))
					p.bytes(profFunction, f.b)
				}
				var line protoWriter
				line.varint(lineFunction, id)
				m.bytes(locationLine, line.b)
			}
			p.bytes(profLocation, m.b)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var m protoWriter
		// Alternate packed and unpacked repeated fields; pprof writers
		// may use either.
		if i%2 == 0 {
			m.packed(sampleLocationID, locs...)
			m.packed(sampleValue, 1, uint64(s.ms)*1e6)
		} else {
			for _, l := range locs {
				m.varint(sampleLocationID, l)
			}
			m.varint(sampleValue, 1)
			m.varint(sampleValue, uint64(s.ms)*1e6)
		}
		p.bytes(profSamples, m.b)
	}
	for _, s := range order {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldProfile(t *testing.T) {
	samples := []struct {
		stack [][]string
		ms    int
	}{
		{[][]string{{"omxsim/internal/vm.(*AddressSpace).Write"}, {"main.main"}}, 10},
		// Copying inside omx is omx's work.
		{[][]string{{"runtime.memmove"}, {"omxsim/internal/omx.(*Endpoint).copyOut"}}, 20},
		// An inlined leaf: the first line of the first location decides.
		{[][]string{{"omxsim/internal/core.(*Cache).covering", "omxsim/internal/omx.(*Endpoint).acquire"}}, 4},
		{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, 30},
		{[][]string{{"runtime.memclrNoHeapPointers"}, {"runtime.mallocgc"}, {"runtime.gcAssistAlloc"}, {"omxsim/internal/vm.(*Frame).ensureOwned"}}, 3},
		{[][]string{{"runtime.futex"}, {"runtime.notewakeup"}, {"runtime.chanrecv1"}, {"omxsim/internal/sim.(*Proc).park"}}, 5},
		{[][]string{{"runtime.nanotime"}, {"runtime.sysmon"}}, 1},
		{[][]string{{"sort.insertionSort"}, {"omxsim/internal/sim.(*ShardSet).deliver"}}, 2},
	}
	got, err := foldProfile(testProfile(t, samples))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"vm": 10, "omx": 20, "core": 4, "runtime.gc": 33, "runtime.sched": 5,
		"runtime.other": 1, "other": 2,
	}
	if len(got) != len(want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
	for b, ms := range want {
		if math.Abs(got[b]-ms) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", b, got[b], ms)
		}
	}
}

func TestFoldProfileRejectsBadInput(t *testing.T) {
	if _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Error("folding a non-gzip profile succeeded")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // sample field claiming 5 bytes, holding 1
	zw.Close()
	if _, err := foldProfile(gz.Bytes()); err == nil {
		t.Error("folding a truncated profile succeeded")
	}
}

// TestFoldRuntimeProfile folds a profile the Go runtime wrote itself.
func TestFoldRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x ^= i * x
		}
	}
	pprof.StopCPUProfile()
	got, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, ms := range got {
		total += ms
	}
	if total <= 0 || got["other"] < total/2 {
		t.Errorf("spinning in the test should fold mostly into other, got %v (x=%d)", got, x)
	}
}
