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

// cpuProfile records a runtime/pprof CPU profile of the traced pass and
// attributes its samples from outside the program: self time goes to the
// package of each sample's innermost frame.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// selfTime is a parsed profile: CPU per innermost package, plus the CPU of
// samples with a garbage-collector frame anywhere on their stack.
type selfTime struct {
	byPkg map[string]time.Duration
	gc    time.Duration
	total time.Duration
}

func (p *cpuProfile) stop() (*selfTime, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// gcFrames marks a sample as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// pkgOf maps a function symbol to its package's last path element:
// "sharebackup/internal/fluid.(*Simulator).fillRates" -> "fluid",
// "sharebackup.affected" -> "sharebackup", "runtime.mallocgc" -> "runtime".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	rest := fn[slash+1:]
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		rest = rest[:dot]
	}
	return rest
}

// The profile.proto fields this parser reads.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(gz []byte) (*selfTime, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  [][]byte
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case fProfileStrings:
			strs = append(strs, string(b))
		case fProfileSample:
			samples = append(samples, b)
		case fProfileFunction:
			var id uint64
			var name int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(lb, func(lf int, lv uint64, _ []byte) error {
						if lf == fLineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	st := &selfTime{byPkg: map[string]time.Duration{}}
	for _, sb := range samples {
		var locs, vals []uint64
		if err := eachField(sb, func(f int, v uint64, pb []byte) error {
			switch f {
			case fSampleLocation:
				if pb == nil {
					locs = append(locs, v)
					return nil
				}
				return eachPacked(pb, func(x uint64) { locs = append(locs, x) })
			case fSampleValue:
				if pb == nil {
					vals = append(vals, v)
					return nil
				}
				return eachPacked(pb, func(x uint64) { vals = append(vals, x) })
			}
			return nil
		}); err != nil {
			return nil, err
		}
		// CPU profiles carry [samples, cpu-nanoseconds].
		if len(vals) < 2 || len(locs) == 0 {
			continue
		}
		cpu := time.Duration(vals[1])
		st.total += cpu
		if fns := locFuncs[locs[0]]; len(fns) > 0 {
			st.byPkg[pkgOf(name(fns[0]))] += cpu
		}
	gcScan:
		for _, l := range locs {
			for _, fid := range locFuncs[l] {
				n := name(fid)
				for _, g := range gcFrames {
					if n == g {
						st.gc += cpu
						break gcScan
					}
				}
			}
		}
	}
	return st, nil
}

// eachField walks one protobuf message. Varint fields pass their value;
// length-delimited fields pass their bytes (b is nil for varints).
func eachField(p []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(p) > 0 {
		key, n := binary.Uvarint(p)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		p = p[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			p = p[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(p)
			if n <= 0 || uint64(len(p)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			b := p[n : n+int(l)]
			p = p[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(p) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			p = p[8:]
		case 5:
			if len(p) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			p = p[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
	}
	return nil
}

func eachPacked(p []byte, fn func(uint64)) error {
	for len(p) > 0 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		fn(v)
		p = p[n:]
	}
	return nil
}
