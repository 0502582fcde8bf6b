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

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// benchmark reads only what folding needs — samples with their location
// stacks, locations with their inlined line frames, function names and the
// string table — with a minimal protobuf wire-format reader, so it needs no
// library beyond the standard one.

// stackSample is one profile sample: its stack of function names, leaf
// first, and its weight (the sample count).
type stackSample struct {
	frames []string
	weight int64
	cpuNS  int64
}

// pbField is one decoded protobuf field.
type pbField struct {
	num    int
	varint uint64 // wire types 0, 1 and 5
	bytes  []byte // wire type 2
	wire   int
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			f.varint, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			f.varint, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire != 2 {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseProfile decodes a (gzipped or raw) profile into stack samples.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	top, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		rawSample [][]pbField
	)
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sf, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			rawSample = append(rawSample, sf)
		case 4: // location
			lf, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range lf {
				switch x.num {
				case 1:
					id = x.varint
				case 4: // line: inlined frames, innermost first
					line, err := pbFields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, y := range line {
						if y.num == 1 {
							fns = append(fns, y.varint)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			ff, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, x := range ff {
				switch x.num {
				case 1:
					id = x.varint
				case 2:
					name = int64(x.varint)
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.bytes))
		}
	}
	name := func(fn uint64) string {
		if i, ok := funcName[fn]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	out := make([]stackSample, 0, len(rawSample))
	for _, sf := range rawSample {
		var s stackSample
		var vals []uint64
		for _, x := range sf {
			vs, err := x.varints()
			if err != nil {
				return nil, err
			}
			switch x.num {
			case 1: // location ids, leaf first
				for _, loc := range vs {
					for _, fn := range locFuncs[loc] {
						s.frames = append(s.frames, name(fn))
					}
				}
			case 2: // values: sample count, then CPU nanoseconds
				vals = append(vals, vs...)
			}
		}
		if len(vals) != 2 {
			return nil, fmt.Errorf("profile: sample has %d values, want 2 (count, cpu)", len(vals))
		}
		s.weight, s.cpuNS = int64(vals[0]), int64(vals[1])
		out = append(out, s)
	}
	return out, nil
}

// funcPackage returns the import path of a symbol such as
// "bbwfsim/internal/flow.(*Network).recompute".
func funcPackage(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// Runtime frames that mark a sample as garbage-collector or allocator
// work, whichever runtime function it ended in.
var (
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination", "runtime.markroot"}
	mallocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.newarray"}
)

func hasFrame(frames, want []string) bool {
	for _, f := range frames {
		for _, w := range want {
			if f == w {
				return true
			}
		}
	}
	return false
}

// bucketOf names the cpu_share bucket of one stack: the leaf function's
// package (bbwfsim's own packages by their last element, other packages
// with "/" and "." turned into "_"), with runtime leaves split into
// runtime_gc, runtime_malloc and runtime by the frames above them.
func bucketOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[0]
	pkg := funcPackage(leaf)
	switch {
	// Compiler-generated hash and equality functions ("type:.eq.T") and
	// assembly bodies without a package prefix ("cmpbody") are runtime
	// support code, split like the runtime's own.
	case strings.HasPrefix(leaf, "type:") || !strings.Contains(leaf, "."),
		pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		switch {
		case hasFrame(frames, gcFrames):
			return "runtime_gc"
		case hasFrame(frames, mallocFrames):
			return "runtime_malloc"
		}
		return "runtime"
	case strings.HasPrefix(pkg, "bbwfsim/perfbench") || pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "bbwfsim/internal/"):
		return strings.TrimPrefix(pkg, "bbwfsim/internal/")
	}
	return strings.NewReplacer("/", "_", ".", "_").Replace(pkg)
}

// fold attributes each sample's weight to its bucket and returns every
// bucket's share of the total.
func fold(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	var total int64
	for _, s := range samples {
		out[bucketOf(s.frames)] += float64(s.weight)
		total += s.weight
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out
}

// cpuShareBuckets are the buckets every traced run reports, whether or not
// the workload runs code there (a bypassed layer reads 0).
var cpuShareBuckets = []string{
	"sim", "flow", "storage", "exec", "trace", "metrics",
	"genomes", "swarp", "workloads", "workflow", "core", "sched", "service",
	"encoding_json", "net_http", "runtime_gc", "runtime_malloc",
}

// setCPUShares reports the fold of the traced run's profiles, taken
// together.
func (r *report) setCPUShares(profiles ...[]byte) error {
	var samples []stackSample
	for _, p := range profiles {
		ss, err := parseProfile(p)
		if err != nil {
			return err
		}
		samples = append(samples, ss...)
	}
	r.profiles = profiles
	r.fold = fold(samples)
	var n int64
	for _, s := range samples {
		n += s.weight
		r.profileNS += s.cpuNS
	}
	for _, b := range cpuShareBuckets {
		r.set("cpu_share."+b, r.fold[b], "ratio")
	}
	r.note("cpu profile: %d samples", n)
	return nil
}

// setFlowCost reports the flow solver's self CPU time per recompute: its
// profile share of the profiled CPU time, over the recomputes the
// profiled code ran.
func (r *report) setFlowCost(recomputes float64) {
	if recomputes > 0 {
		r.set("flow.ns_per_recompute", r.fold["flow"]*float64(r.profileNS)/recomputes, "ns")
	}
}
