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

// cpuSample is one profile sample: the function names on its stack,
// innermost first, with inlined frames expanded, and the CPU time it
// stands for.
type cpuSample struct {
	funcs []string
	cpuNs int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields the stage attribution needs are read: samples,
// locations with their line entries (one per inlined frame), functions and
// the string table. The decoder is a minimal protobuf reader, because the
// module takes no dependencies outside the standard library.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs      []string
		types     [][2]int64 // sample_type: (type, unit) string indices
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, p []byte) error {
				switch n {
				case 1:
					return eachVarint(w, v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(w, v, p, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: one per frame, inlined callees before their caller
					return eachField(p, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
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
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, vt := range types {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.vals) {
			continue
		}
		cs := cpuSample{cpuNs: s.vals[cpuIdx]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				cs.funcs = append(cs.funcs, str(funcNames[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField calls fn for every top-level field of one protobuf message:
// the field number, the wire type, the value of a varint field and the
// payload of a length-delimited one. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field tag")
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields the values of a repeated varint field, packed
// (wire type 2) or not.
func eachVarint(wire int, v uint64, packed []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

// frameRule names one bucket of the CPU attribution and the frames that
// put a sample in it.
type frameRule struct {
	metric string
	match  func(fn string) bool
}

const corePkg = "clustersmt/internal/core."

func method(recv, name string) func(string) bool {
	full := corePkg + "(*" + recv + ")." + name
	return func(fn string) bool { return fn == full }
}

func inPackage(pkg string) func(string) bool {
	prefix := "clustersmt/internal/" + pkg + "."
	return func(fn string) bool { return strings.HasPrefix(fn, prefix) }
}

// profileRules attributes CPU samples to the stages of Processor.Step, to
// the component models they drive, and to whole simulations. A sample
// counts once toward every rule one of its frames matches.
var profileRules = []frameRule{
	{"core.stage.completions_s", method("Processor", "processCompletions")},
	{"core.stage.flush_s", method("Processor", "handleFlushes")},
	{"core.stage.commit_s", method("Processor", "commit")},
	{"core.stage.issue_s", method("Processor", "issue")},
	{"core.stage.rename_s", method("Processor", "rename")},
	{"core.stage.fetch_s", method("Processor", "fetch")},
	{"core.stage.endcycle_s", method("Processor", "endCycle")},
	{"core.wrongpath_s", func(fn string) bool {
		return fn == "clustersmt/internal/trace.(*WrongPathGenerator).Next"
	}},
	{"core.policy_s", inPackage("policy")},
	{"core.steer_s", inPackage("steer")},
	{"core.cachesim_s", inPackage("cachesim")},
	{"core.bpred_s", inPackage("bpred")},
	{"profile.sim_s", method("Processor", "RunCtx")},
	{"profile.new_s", func(fn string) bool { return fn == corePkg+"New" }},
}

// attribute sums the CPU seconds of the samples matching each rule.
func attribute(samples []cpuSample, rules []frameRule) map[string]float64 {
	out := make(map[string]float64, len(rules))
	for _, r := range rules {
		out[r.metric] = 0
	}
	for _, s := range samples {
		for _, r := range rules {
			for _, fn := range s.funcs {
				if r.match(fn) {
					out[r.metric] += float64(s.cpuNs) / 1e9
					break
				}
			}
		}
	}
	return out
}
