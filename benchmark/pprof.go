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

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with the standard library alone, and attributes each
// sample's CPU time to the simulator layer it was spent in.

// profSample is one decoded sample: its call stack, leaf first, with
// inlined frames expanded innermost first; its labels; and its CPU time.
type profSample struct {
	stack  []string
	labels map[string]string
	cpuNs  int64
}

// decodeProfile parses a gzipped pprof profile.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string indices
	}
	var (
		strs       []string
		valueTypes [][2]int64 // type, unit string indices
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames  = map[uint64]int64{}    // function id -> name string index
	)
	err = eachField(raw, func(f field) error {
		switch f.num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(f.bytes, func(g field) error {
				if g.num == 1 || g.num == 2 {
					vt[g.num-1] = int64(g.varint)
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					return g.appendUints(&s.locs)
				case 2:
					var vs []uint64
					if err := g.appendUints(&vs); err != nil {
						return err
					}
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				case 3:
					var kv [2]int64
					err := eachField(g.bytes, func(h field) error {
						if h.num == 1 || h.num == 2 {
							kv[h.num-1] = int64(h.varint)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					id = g.varint
				case 4:
					return eachField(g.bytes, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = int64(g.varint)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := len(valueTypes) - 1
	for i, vt := range valueTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{cpuNs: s.values[cpu]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		if len(s.labels) > 0 {
			ps.labels = make(map[string]string, len(s.labels))
			for _, kv := range s.labels {
				ps.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// field is one protobuf field: varint-typed fields carry varint, length-
// delimited ones carry bytes.
type field struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// appendUints reads a repeated integer field, packed or not.
func (f field) appendUints(dst *[]uint64) error {
	if f.wire == 0 {
		*dst = append(*dst, f.varint)
		return nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, v)
		b = b[n:]
	}
	return nil
}

func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Layers.

// layers lists the simulator layers, named after its modules, plus the two
// buckets for stacks with no simulator frame.
var layers = []string{
	"sim", "gpu", "hsa", "alloc", "core", "models", "llm", "sched", "server",
	"cluster", "gateway", "workload", "telemetry", "energy", "metrics",
	"parallel", "misc", "gc", "runtime",
}

const internalPrefix = "krisp/internal/"

// packageLayer maps a package below krisp/internal to its layer. Packages
// not listed belong to misc.
var packageLayer = map[string]string{
	"sim": "sim", "gpu": "gpu", "hsa": "hsa", "alloc": "alloc", "core": "core",
	"models": "models", "kernels": "models", "llm": "llm",
	"sched": "sched", "profile": "sched", "server": "server",
	"cluster": "cluster", "cluster/gateway": "gateway", "cluster/workload": "workload",
	"telemetry": "telemetry", "energy": "energy", "metrics": "metrics", "parallel": "parallel",
}

// funcPackage returns the import path of a symbol name such as
// "krisp/internal/cluster/gateway.(*Gateway).Admit".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold dotted paths
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf attributes a stack (leaf first) to the layer of its innermost
// simulator frame: the layer whose code was running or called the runtime
// that was. Stacks without one are GC workers or other runtime work.
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if rest, ok := strings.CutPrefix(pkg, internalPrefix); ok {
			if l, ok := packageLayer[rest]; ok {
				return l
			}
			return "misc"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	return "runtime"
}

// layerTimes sums the CPU time of the samples that pass keep, per layer.
func layerTimes(samples []profSample, keep func(profSample) bool) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		if keep == nil || keep(s) {
			out[layerOf(s.stack)] += s.cpuNs
		}
	}
	return out
}
