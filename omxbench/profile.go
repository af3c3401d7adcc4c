package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// foldProfile reads a gzipped pprof CPU profile, as runtime/pprof writes
// it, and returns CPU milliseconds per bucket; see bucketOf.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make(map[string]float64)
	var stack []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample has too few values")
		}
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fn := range p.locations[id] {
				stack = append(stack, p.str(p.functions[fn]))
			}
		}
		if len(stack) == 0 {
			continue
		}
		out[bucketOf(stack)] += float64(s.values[vi]) / 1e6
	}
	return out, nil
}

// bucketOf assigns a leaf-first call stack to its bucket. A sample whose
// leaf is in a package under omxsim/internal belongs to that package's
// layer ("sim", "vm", ...). A runtime leaf belongs to "runtime.gc" or
// "runtime.sched" when the frames beneath it are collecting garbage or
// scheduling goroutines; any other runtime work (copying, allocation, map
// access) belongs to the caller that asked for it: the first frame outside
// the runtime decides, and a stack that never leaves the runtime is
// "runtime.other". Leaves in any other package are "other".
func bucketOf(stack []string) string {
	if !isRuntime(stack[0]) {
		return layerOf(stack[0])
	}
	for _, f := range stack {
		if hasAnyPrefix(f, gcFrames) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if hasAnyPrefix(f, schedFrames) {
			return "runtime.sched"
		}
	}
	for _, f := range stack {
		if !isRuntime(f) {
			return layerOf(f)
		}
	}
	return "runtime.other"
}

// layerOf is the omxsim/internal package a function belongs to, or "other".
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "omxsim/internal/"); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 {
			return rest[:i]
		}
	}
	return "other"
}

func isRuntime(fn string) bool {
	return hasAnyPrefix(fn, []string{"runtime.", "internal/runtime/", "runtime/internal/"})
}

// gcFrames mark a stack as garbage collection: background marking and
// sweeping, mark assists charged to allocating goroutines, and the forced
// collection before each rep.
var gcFrames = []string{
	"runtime.gc", "runtime.GC", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scan", "runtime.sweep", "runtime.(*sweepLocked)",
	"runtime.(*gcWork)", "runtime.(*mheap).reclaim", "runtime.wbBuf",
}

// schedFrames mark a stack as goroutine scheduling and hand-off: the
// channel operations sim.Proc parks and resumes through, and the scheduler
// loop behind them.
var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.gosched", "runtime.chansend",
	"runtime.chanrecv", "runtime.send", "runtime.recv", "runtime.selectgo",
	"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.note",
	"runtime.mPark", "runtime.runq", "runtime.stealWork", "runtime.execute",
	"runtime.mcall", "runtime.futex",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// profile is the subset of the pprof profile.proto message folding needs.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string-table indices
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids, leaf first
	functions   map[uint64]int64    // function id -> name string-table index
	strings     []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSamples     = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
	valueTypeUnit = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num, _ int, _ uint64, msg []byte) error {
		switch num {
		case profSampleType:
			var t [2]int64
			err := eachField(msg, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case valueTypeType:
					t[0] = int64(v)
				case valueTypeUnit:
					t[1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, t)
			return err
		case profSamples:
			var s profSample
			err := eachField(msg, func(num, wire int, v uint64, packed []byte) error {
				switch num {
				case sampleLocationID:
					return appendVarints(&s.locs, wire, v, packed)
				case sampleValue:
					var u []uint64
					if err := appendVarints(&u, wire, v, packed); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num, _ int, v uint64, line []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(line, func(num, _ int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint's value, msg a length-delimited field's bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
