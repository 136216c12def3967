package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. runtime/pprof writes a gzipped protobuf
// (github.com/google/pprof/proto/profile.proto); the standard library
// has no reader for it, so this file decodes the few fields the
// attribution needs: samples (location ids and values), locations
// (their inlined function lines) and functions (their names).

// modPrefix is the import-path prefix of the layers under test.
const modPrefix = "fractos/internal/"

// layerOf names the layer a function belongs to: the last element of
// its package path under fractos/internal ("core", "gpu",
// "faceverify", ...), "bench" for the benchmark's own package, and ""
// for anything else (the Go runtime and standard library).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modPrefix)
	if !ok {
		return ""
	}
	// The package path ends at the first dot: no element of this
	// module's import paths contains one, and everything after it is
	// the function (whose generic instantiations may contain slashes).
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest[strings.LastIndexByte(rest, '/')+1:]
}

// attribute charges each stack (leaf first) to the innermost frame
// that belongs to a layer, so runtime work such as allocation and
// goroutine switching lands on the layer that caused it; stacks with
// no such frame are charged to "runtime".
func attribute(stacks [][]string, weights []int64) map[string]int64 {
	out := map[string]int64{}
	for i, st := range stacks {
		layer := "runtime"
		for _, fn := range st {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += weights[i]
	}
	return out
}

// decodeProfile parses a gzipped pprof profile into per-sample stacks
// (function names, innermost first) and their weights (the last sample
// value: CPU nanoseconds for a CPU profile).
func decodeProfile(data []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strtab  []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // Profile.string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var st []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && i < int64(len(strtab)) {
					st = append(st, strtab[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.vals[len(s.vals)-1])
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or its bytes (wire type
// 2). Fixed-width fields are skipped; pprof profiles use none.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var body []byte
		switch typ {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", typ)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: a single
// varint, or a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// varint decodes a protobuf base-128 varint, returning the value and
// the bytes consumed (0 if b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
