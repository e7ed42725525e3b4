package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// layers are the buckets CPU samples are charged to: pccsim's packages
// (the model checker split by source file), the benchmark's own code, the
// garbage collector's worker goroutines, and everything else. Their
// shares of a profile sum to 1.
var layers = []string{
	"sim", "network", "core", "protocol", "cache", "rac", "directory",
	"delegate", "addrtab", "predictor", "mem", "cpu", "msg", "stats",
	"obs", "workload", "node", "runner", "harness",
	"mcheck.rules", "mcheck.canon", "mcheck.visited", "mcheck.parallel", "mcheck.model",
	"bench", "gc", "other",
}

var knownLayers = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

const pccsimPrefix = "pccsim/internal/"

// frame is one function in a sampled stack.
type frame struct{ fn, file string }

// layerOf charges a stack, leaf first, to one bucket. Samples in a GC
// worker's stack go to gc. Every other sample goes to the nearest pccsim
// caller, so runtime work such as map operations, memmove and allocation
// is charged to the layer that asked for it; stacks with no pccsim or
// benchmark frame are other.
func layerOf(stack []frame) string {
	for _, f := range stack {
		switch f.fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			return "gc"
		}
	}
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f.fn, pccsimPrefix):
			rest := f.fn[len(pccsimPrefix):]
			pkg := rest
			if i := strings.IndexByte(rest, '.'); i >= 0 {
				pkg = rest[:i]
			}
			if pkg == "mcheck" {
				return mcheckLayer(path.Base(f.file))
			}
			if knownLayers[pkg] {
				return pkg
			}
			return "other"
		case strings.HasPrefix(f.fn, "main."):
			return "bench"
		}
	}
	return "other"
}

// mcheckLayer splits the model checker by source file: its rules, state
// canonicalisation, visited table and work-stealing scheduler.
func mcheckLayer(file string) string {
	switch file {
	case "rules.go":
		return "mcheck.rules"
	case "canon.go":
		return "mcheck.canon"
	case "visited.go":
		return "mcheck.visited"
	case "parallel.go":
		return "mcheck.parallel"
	}
	return "mcheck.model"
}

// profileSum accumulates CPU time per layer over several profiles.
type profileSum struct {
	cpu   map[string]float64 // sampled CPU seconds per layer
	total float64
}

func newProfileSum() *profileSum { return &profileSum{cpu: map[string]float64{}} }

// add charges every sample of one runtime/pprof CPU profile.
func (p *profileSum) add(data []byte) error {
	samples, err := parseCPUProfile(data)
	if err != nil {
		return err
	}
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		p.cpu[layerOf(s.stack)] += sec
		p.total += sec
	}
	return nil
}

func (p *profileSum) share(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return p.cpu[layer] / p.total
}

type sample struct {
	stack []frame // leaf first, inlined frames expanded
	nanos int64
}

// parseCPUProfile decodes the parts of a gzipped pprof profile
// (github.com/google/pprof/proto/profile.proto) that bucketing needs:
// samples, locations, functions and the string table.
func parseCPUProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type function struct{ name, file int64 }
	var (
		types     []int64 // string index of each sample type
		samples   []rawSample
		locations = map[uint64][]uint64{} // function ids, innermost first
		functions = map[uint64]function{}
		strs      []string
	)
	err = forFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return forFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := forFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f function
			err := forFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			functions[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	valueIdx := 0
	for i, t := range types {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			continue
		}
		var stack []frame
		for _, id := range s.locs {
			for _, fn := range locations[id] {
				f := functions[fn]
				stack = append(stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, sample{stack: stack, nanos: s.values[valueIdx]})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// forFields calls fn for each field of a protobuf message: v is the value
// of a varint field, b the payload of a length-delimited one. Fixed-width
// fields are skipped.
func forFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
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
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (payload b) or
// not (value v).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
