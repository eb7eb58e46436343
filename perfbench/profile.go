package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// The traced run attributes CPU-profile samples to the repository's layers
// without any change to the program: each sample goes to the innermost
// stack frame that belongs to a nocs/internal/<module> package. Runtime
// frames above it (map access, malloc, write barriers) are skipped, so their
// cost lands on the layer that called them. A sample with no nocs frame is
// perfbench's own work when a frame of package main is on the stack, and
// the runtime's (GC workers, scheduler) otherwise.
//
// A pprof CPU profile is a gzipped protocol buffer (profile.proto). Only
// samples, locations, functions and the string table are needed, so a small
// wire-format reader stands in for a protobuf library.

const internalPrefix = "nocs/internal/"

// layerOf returns the module a function belongs to, or "" when it is not a
// function of the repository.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		mod := fn[len(internalPrefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		return mod
	case strings.HasPrefix(fn, "main."):
		return "perfbench"
	}
	return ""
}

// attribute returns each layer's share of the profile's samples. A
// perfbench frame claims a sample only when no nocs frame is on its stack.
func attribute(stacks [][]string, weights []int64) map[string]float64 {
	byLayer := map[string]int64{}
	var total int64
	for i, stack := range stacks {
		w := weights[i]
		total += w
		layer := "runtime"
		for _, fn := range stack { // innermost first
			l := layerOf(fn)
			if l == "perfbench" {
				layer = l
				continue
			}
			if l != "" {
				layer = l
				break
			}
		}
		byLayer[layer] += w
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for l, n := range byLayer {
		shares[l] = float64(n) / float64(total)
	}
	return shares
}

// parseProfile decodes a gzipped pprof profile into per-sample stacks
// (function names, innermost first, inlined frames expanded) and the
// sample counts.
func parseProfile(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strtab    []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		sampleLoc [][]uint64
		sampleVal [][]uint64
	)
	err = walk(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					locs = appendRepeated(locs, v, d)
				case 2:
					vals = appendRepeated(vals, v, d)
				}
				return nil
			})
			sampleLoc, sampleVal = append(sampleLoc, locs), append(sampleVal, vals)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walk(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walk(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}

	for i, locs := range sampleLoc {
		var stack []string
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				if n := funcName[f]; n >= 0 && n < int64(len(strtab)) {
					stack = append(stack, strtab[n])
				}
			}
		}
		var w int64 = 1
		if len(sampleVal[i]) > 0 {
			w = int64(sampleVal[i][0]) // sample_type 0 is samples/count
		}
		stacks = append(stacks, stack)
		weights = append(weights, w)
	}
	return stacks, weights, nil
}

// appendRepeated adds one element of a repeated integer field, which the
// encoder writes either one varint per element or packed into a
// length-delimited run.
func appendRepeated(xs []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(xs, v)
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		xs = append(xs, u)
		packed = packed[n:]
	}
	return xs
}

var errTruncated = errors.New("truncated protocol buffer")

// walk calls fn for each field of a protocol-buffer message: v holds a
// varint or fixed-width value, data the bytes of a length-delimited field
// (nil otherwise).
func walk(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// measureTraced runs passes for the given host time with a CPU profile and
// in-memory spans on, and returns each layer's <layer>.self_share. Layers
// the spec does not list are folded into other.self_share.
func measureTraced(r *run, w benchWorkload, seconds float64, listed map[string]bool) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	r.tracing = true
	r.spans = &spanLog{t0: time.Now()}
	measure(r, w, seconds, 1)
	pprof.StopCPUProfile()
	r.tracing = false

	stacks, weights, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for layer, share := range attribute(stacks, weights) {
		name := layer + ".self_share"
		if !listed[name] {
			name = "other.self_share"
		}
		out[name] += share
	}
	return out, nil
}
