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

// Layer attribution of CPU profiles, decoded from runtime/pprof's gzipped
// profile.proto with no dependency beyond the standard library. Each sample
// is charged to the innermost jxta/internal/<pkg> frame on its stack, not
// to its leaf: by leaf, most samples land in the allocator and collector,
// which hides the layer that called them. Samples of the collector's
// background goroutines (mark workers, sweeper, scavenger) form their own
// row, and samples with no jxta frame at all (the benchmark itself, other
// runtime work) count as "other".

const (
	jxtaPrefix = "jxta/internal/"
	gcBgRow    = "runtime.gc_bg"
	otherRow   = "other"
)

// attribution sums profile samples per row.
type attribution struct {
	rows  map[string]int64
	total int64
}

func newAttribution() *attribution { return &attribution{rows: make(map[string]int64)} }

// share is a row's fraction of all samples (0 with no samples).
func (a *attribution) share(row string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.rows[row]) / float64(a.total)
}

// add decodes one gzipped CPU profile and adds its samples.
func (a *attribution) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		row := p.rowOf(s.locations)
		a.rows[row] += s.count
		a.total += s.count
	}
	return nil
}

type sample struct {
	locations []uint64 // leaf first
	count     int64
}

type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location ID → function IDs, innermost inlined frame first
	functions map[uint64]int64    // function ID → name index in strings
	strings   []string
}

// rowOf names the row a stack is charged to.
func (p *profile) rowOf(stack []uint64) string {
	row := otherRow
	for _, loc := range stack {
		for _, fn := range p.locations[loc] {
			name := p.funcName(fn)
			switch name {
			case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
				return gcBgRow
			}
			if row == otherRow && strings.HasPrefix(name, jxtaPrefix) {
				row = packageOf(name)
			}
		}
	}
	return row
}

func (p *profile) funcName(id uint64) string {
	i := p.functions[id]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// packageOf maps "jxta/internal/simnet.(*Scheduler).Run" to "simnet".
func packageOf(fn string) string {
	rest := strings.TrimPrefix(fn, jxtaPrefix)
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// Field numbers of profile.proto used here.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSample:
			s, err := parseSample(data)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(d, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == lineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

func parseSample(b []byte) (sample, error) {
	var s sample
	var values []uint64
	err := eachField(b, func(f, wire int, v uint64, data []byte) error {
		var dst *[]uint64
		switch f {
		case sampleLocationID:
			dst = &s.locations
		case sampleValue:
			dst = &values
		default:
			return nil
		}
		if wire == wireBytes { // packed
			for len(data) > 0 {
				x, n := binary.Uvarint(data)
				if n <= 0 {
					return errBadProfile
				}
				*dst = append(*dst, x)
				data = data[n:]
			}
			return nil
		}
		*dst = append(*dst, v)
		return nil
	})
	if len(values) > 0 {
		s.count = int64(values[0]) // sample_type[0] is samples/count
	}
	return s, err
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errBadProfile = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, passing varint values as v and
// length-delimited payloads as data.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return errBadProfile
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
