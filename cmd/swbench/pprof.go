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

// This file is a minimal reader for the profile.proto files runtime/pprof
// writes: it gunzips the file and decodes only samples, locations, functions
// and the string table, which is all package attribution needs.  Every other
// field is skipped by wire type.

// profile is the decoded subset of a pprof profile.
type profile struct {
	samples []profSample
	// locFuncs maps a location id to the function ids of its lines,
	// innermost (inlined callee) first.
	locFuncs map[uint64][]uint64
	// funcName maps a function id to its name's string-table index.
	funcName map[uint64]int64
	strings  []string
}

// profSample is one stack (leaf location first) and its first value, the
// sample count in CPU profiles.
type profSample struct {
	locs  []uint64
	count int64
}

// Field numbers of the decoded messages (profile.proto).
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileString   = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

var errTruncated = errors.New("pprof: truncated message")

// parseProfile decodes a (possibly gzip-compressed) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		data = raw
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fieldProfileSample:
			s, err := parseSample(b)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fieldProfileLocation:
			id, funcs, err := parseLocation(b)
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case fieldProfileString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	haveCount := false
	err := eachField(b, func(num, wire int, v uint64, body []byte) error {
		switch num {
		case fieldSampleLocation:
			ids, err := repeatedVarints(wire, v, body)
			if err != nil {
				return err
			}
			s.locs = append(s.locs, ids...)
		case fieldSampleValue:
			vals, err := repeatedVarints(wire, v, body)
			if err != nil {
				return err
			}
			if !haveCount && len(vals) > 0 {
				s.count, haveCount = int64(vals[0]), true
			}
		}
		return nil
	})
	return s, err
}

func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var funcs []uint64
	err := eachField(b, func(num, _ int, v uint64, body []byte) error {
		switch num {
		case fieldLocationID:
			id = v
		case fieldLocationLine:
			return eachField(body, func(num, _ int, v uint64, _ []byte) error {
				if num == fieldLineFunction {
					funcs = append(funcs, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, funcs, err
}

// repeatedVarints decodes a repeated integer field that may be packed
// (length-delimited) or written one element per field.
func repeatedVarints(wire int, v uint64, body []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	if wire != 2 {
		return nil, fmt.Errorf("pprof: integer field with wire type %d", wire)
	}
	var out []uint64
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		body = body[n:]
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, calling fn with the
// field number, wire type, and either the varint value or the
// length-delimited body.  Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
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
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// modulePrefix is the import-path prefix of the program's layers.
const modulePrefix = "github.com/hpcperf/switchprobe/internal/"

// shareBuckets are the share.<bucket> names a CPU profile is attributed to:
// the program's layers, "other" for its remaining internal packages, and
// "runtime" for stacks that never enter an internal package (the Go runtime,
// the garbage collector, and this command's own code).
var shareBuckets = []string{
	"sim", "netsim", "mpisim", "core", "engine", "experiments",
	"sched", "model", "workload", "stats", "other", "runtime",
}

// bucketOf returns the share bucket of a function name.
func bucketOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, b := range shareBuckets[:len(shareBuckets)-2] {
		if rest == b {
			return b, true
		}
	}
	return "other", true
}

// bucketCounts attributes every sample to the innermost internal package
// on its stack (inlined frames included), or to "runtime" when the stack has
// none, and returns the sample counts per bucket.
func (p *profile) bucketCounts() (map[string]int64, error) {
	out := map[string]int64{}
	for _, s := range p.samples {
		bucket := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				idx, ok := p.funcName[fid]
				if !ok || idx < 0 || idx >= int64(len(p.strings)) {
					return nil, fmt.Errorf("pprof: function %d has no name", fid)
				}
				if b, ok := bucketOf(p.strings[idx]); ok {
					bucket = b
					break stack
				}
			}
		}
		out[bucket] += s.count
	}
	return out, nil
}
