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

// layerSamples attributes the samples of a CPU profile written by
// runtime/pprof to program layers. Each sample goes to the innermost frame
// that belongs to the simulator module ("tapejuke" and "tapejuke/...") or
// to the benchmark itself (package main, whose frames are the tracing
// wrappers), so time in generic library code such as sort or slices counts
// for the layer that called it. Layers are named by the last element of the
// package path; the module root is "tapejuke", the benchmark "bench", and
// samples with neither (the runtime's own work, such as background garbage
// collection) land under "other". It returns samples per layer and the
// total.
func layerSamples(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	layerOfFunc := make(map[uint64]string, len(p.funcName))
	for id, name := range p.funcName {
		layerOfFunc[id] = layerOf(p.str(name))
	}
	out := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := "other"
	find:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOfFunc[fn]; l != "" {
					layer = l
					break find
				}
			}
		}
		out[layer] += s.count
		total += s.count
	}
	return out, total, nil
}

// layerOf returns the layer a function symbol belongs to, or "" when it is
// outside the simulator module and the benchmark.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, "tapejuke.") && !strings.HasPrefix(fn, "tapejuke/") {
		return ""
	}
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // type arguments may hold package paths
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

// profile holds the parts of a pprof profile.proto message the attribution
// needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcName map[uint64]int64    // function id -> string table index of its name
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the fields of profile.proto used here: Profile.sample
// (2), .location (4), .function (5) and .string_table (6); Sample.location_id
// (1) and .value (2); Location.id (1) and .line (4); Line.function_id (1);
// Function.id (1) and .name (2). A CPU profile's first sample value is the
// sample count.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return varints(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, data, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks a protobuf message, calling f with each field's number and
// either its varint value or its length-delimited payload. Fixed-width
// fields are skipped.
func fields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated integer field that arrived either unpacked
// (data == nil, one value v) or packed (data holds the varints).
func varints(v uint64, data []byte, f func(uint64)) error {
	if data == nil {
		f(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		data = data[n:]
	}
	return nil
}
