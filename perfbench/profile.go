package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The CPU profile is the gzipped profile.proto that runtime/pprof writes.
// Only the fields needed to walk each sample's stack are decoded:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (repeated), 2 value (repeated)
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name (string_table index)

var errProto = errors.New("malformed CPU profile")

// protoFields calls fn for each field of a protobuf message: v holds a
// varint's value, data a length-delimited field's bytes (nil for varints).
// Fixed-width fields are skipped.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendUints appends a repeated integer field that may arrive packed
// (data non-nil) or as one varint per occurrence.
func appendUints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// stackSample is one profile sample: its count and its function names from
// the leaf outwards, inlined frames included.
type stackSample struct {
	count int64
	funcs []string
}

// parseProfile decodes a runtime/pprof CPU profile into stacks.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct{ locs, values []uint64 }
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location → function ids, innermost first
	funcName := map[uint64]uint64{}   // function → string table index
	var strs []string
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := protoFields(data, func(num int, v uint64, d []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, v, d)
				case 2:
					s.values, err = appendUints(s.values, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return protoFields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProto
		}
		st := stackSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				st.funcs = append(st.funcs, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// selfModules are the repo modules whose exclusive CPU share is reported as
// "<module>.self_frac". Samples in other repro modules, the benchmark
// itself, or runtime code with no repro caller count as "other".
var selfModules = []string{
	"network", "sim", "router", "powerlink", "policy", "shardrun",
	"fault", "optics", "stats", "traffic", "checkpoint",
}

// gcRoots are the runtime entry points of garbage-collection work, whether
// on a background worker or assisted from an allocating goroutine.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.deductSweepCredit": true,
}

// hotPaths are the ROADMAP's named hot paths, reported as the share of
// samples with at least one matching frame on the stack.
var hotPaths = []struct {
	metric string
	match  func(fn string) bool
}{
	{"sim.harvest_frac", equals("repro/internal/sim.(*Wheel).BeginCycle")},
	{"sim.schedule_frac", hasPrefix("repro/internal/sim.(*Wheel).Schedule")},
	{"router.grant_frac", equals("repro/internal/router.(*Output).TryGrant")},
	{"router.crc_frac", equals("repro/internal/router.flitCRC")},
	{"policy.tick_frac", func(fn string) bool {
		return strings.HasPrefix(fn, "repro/internal/policy.") && strings.HasSuffix(fn, ").Tick")
	}},
	{"network.ff_frac", equals("repro/internal/network.(*Network).skipIdleTo", "repro/internal/network.(*Network).nextWorkAt")},
	{"shardrun.ring_frac", hasPrefix("repro/internal/shardrun.(*Ring[")},
}

func equals(names ...string) func(string) bool {
	return func(fn string) bool {
		for _, n := range names {
			if fn == n {
				return true
			}
		}
		return false
	}
}

func hasPrefix(p string) func(string) bool {
	return func(fn string) bool { return strings.HasPrefix(fn, p) }
}

// module returns the repro/internal module a function belongs to, or "".
func module(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// attribute turns profile samples into the per-layer shares: exclusive
// self time per module, the GC share, and the cumulative hot-path shares,
// all over the total sample count, which is also returned.
func attribute(samples []stackSample) (map[string]float64, int64) {
	var total int64
	self := map[string]int64{}
	cum := map[string]int64{}
	for _, s := range samples {
		total += s.count
		self[selfBucket(s.funcs)] += s.count
		for _, hp := range hotPaths {
			for _, fn := range s.funcs {
				if hp.match(fn) {
					cum[hp.metric] += s.count
					break
				}
			}
		}
	}
	frac := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	out := map[string]float64{}
	other := total - self["runtime.gc"]
	for _, m := range selfModules {
		out[m+".self_frac"] = frac(self[m])
		other -= self[m]
	}
	out["runtime.gc_frac"] = frac(self["runtime.gc"])
	out["other.self_frac"] = frac(other)
	for _, hp := range hotPaths {
		out[hp.metric] = frac(cum[hp.metric])
	}
	return out, total
}

// selfBucket names where a sample's exclusive time goes: GC work anywhere
// on the stack is "runtime.gc"; otherwise the innermost repro module, so
// standard-library and runtime leaves (sorting, atomics, memmove, malloc)
// count toward the module that called them.
func selfBucket(funcs []string) string {
	for _, fn := range funcs {
		if gcRoots[fn] {
			return "runtime.gc"
		}
	}
	for _, fn := range funcs {
		if m := module(fn); m != "" {
			return m
		}
	}
	return "other"
}
