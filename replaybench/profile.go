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

// The traced leg takes a runtime/pprof CPU profile and attributes its
// samples to layers by the frames on each stack. Work inside Decide has
// no public boundary, and par.For workers lose their callers' frames, so
// a layer is recognised by its own entry frames (closures included), not
// by who called it. A sample counts toward every layer it matches: LQN
// solves nest inside both Perf-Pwr and the search.

const pkg = "github.com/mistralcloud/mistral/internal/"

// layerFrames maps each attributed layer to its entry frames. A pattern
// ending in '*' matches by prefix; any other matches the function itself
// and the closures defined in it.
var layerFrames = []struct {
	layer  string
	frames []string
}{
	{"perfpwr", []string{pkg + "core.PerfPwr*", pkg + "core.sweepHostCounts", pkg + "core.packWithReduction", pkg + "core.polishAllocations"}},
	{"search", []string{pkg + "core.(*Searcher).search"}},
	{"lqn", []string{pkg + "lqn.(*Model).Evaluate"}},
	{"provenance", []string{pkg + "provenance.*", pkg + "core.harvestRejected"}},
	{"obs", []string{pkg + "obs/tsdb.*", pkg + "obs/slo.*"}},
	{"gc", []string{"runtime.gcBgMarkWorker"}},
}

func frameMatches(pattern, fn string) bool {
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(fn, p)
	}
	return fn == pattern || strings.HasPrefix(fn, pattern+".")
}

// attribution is a CPU profile folded onto the layers.
type attribution struct {
	totalNs int64
	layerNs map[string]int64
	frameNs map[string]int64 // per entry frame pattern
}

func (a *attribution) share(layer string) float64 {
	if a.totalNs == 0 {
		return 0
	}
	return float64(a.layerNs[layer]) / float64(a.totalNs)
}

// attribute folds a gzipped profile.proto CPU profile onto layerFrames.
func attribute(gz []byte) (*attribution, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	// Resolve each location to the entry frames its (inlined) functions
	// match, once.
	locFrames := make(map[uint64][]int)
	var patterns []string
	patLayer := map[int]string{}
	for _, l := range layerFrames {
		for _, f := range l.frames {
			patLayer[len(patterns)] = l.layer
			patterns = append(patterns, f)
		}
	}
	for id, fns := range p.locFuncs {
		for _, fid := range fns {
			name := p.strings[p.funcName[fid]]
			for i, pat := range patterns {
				if frameMatches(pat, name) {
					locFrames[id] = append(locFrames[id], i)
				}
			}
		}
	}
	a := &attribution{layerNs: map[string]int64{}, frameNs: map[string]int64{}}
	for _, s := range p.samples {
		a.totalNs += s.ns
		frames := map[int]bool{}
		for _, loc := range s.locs {
			for _, i := range locFrames[loc] {
				frames[i] = true
			}
		}
		layers := map[string]bool{}
		for i := range frames {
			a.frameNs[patterns[i]] += s.ns
			layers[patLayer[i]] = true
		}
		for l := range layers {
			a.layerNs[l] += s.ns
		}
	}
	return a, nil
}

// profile holds the parts of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs []uint64
	ns   int64 // CPU nanoseconds (value index 1 of a CPU profile)
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 1 {
				s.ns = int64(vals[1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
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
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
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
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("cpu profile: function name out of string table")
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
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
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
