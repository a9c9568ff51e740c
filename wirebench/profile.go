package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuBuckets are the CPU-by-layer shares the benchmark reports: the
// repro/internal packages on the message path, plus syscalls and the
// garbage collector, plus everything else.
var cpuBuckets = []string{
	"syscall", "gc", "sim", "netsim", "transport", "wire", "core",
	"queue", "seq", "msg", "store", "telemetry", "metrics", "other",
}

// bucketOf assigns one profile sample to a bucket. frames run from the
// leaf outwards. Walking from the leaf, the first frame that is a
// syscall or a garbage-collector frame, or that belongs to a
// repro/internal package, decides: the innermost layer on the stack
// pays for the sample. Internal packages without a bucket of their
// own, and stacks with no deciding frame, go to "other".
func bucketOf(frames []string) string {
	for _, fn := range frames {
		switch {
		case isSyscallFrame(fn):
			return "syscall"
		case isGCFrame(fn):
			return "gc"
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, b := range cpuBuckets {
				if b == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}

func isSyscallFrame(fn string) bool {
	for _, p := range []string{"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	switch fn {
	case "runtime.futex", "runtime.epollwait", "runtime.usleep", "runtime.nanosleep", "runtime.write1", "runtime.read":
		return true
	}
	return false
}

func isGCFrame(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.(*sweepLocked)", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.wbBuf", "runtime.(*mspan).sweep",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// profileSample is one stack of a CPU profile, leaf first, with its
// weight (CPU nanoseconds).
type profileSample struct {
	frames []string
	weight int64
}

// cpuShares buckets samples and returns each bucket's share of the
// total weight. Every bucket is present, zero when nothing landed in it.
func cpuShares(samples []profileSample) map[string]float64 {
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	var total float64
	for _, s := range samples {
		out[bucketOf(s.frames)] += float64(s.weight)
		total += float64(s.weight)
	}
	if total > 0 {
		for b := range out {
			out[b] /= total
		}
	}
	return out
}

// readProfile decodes a runtime/pprof CPU profile (gzipped
// profile.proto) into leaf-first stacks of function names. Only the
// fields the bucketing needs are read: samples, locations with their
// (inlined) lines, functions and the string table.
func readProfile(path string) ([]profileSample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	return decodeProfile(raw)
}

func decodeProfile(b []byte) ([]profileSample, error) {
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, data)
				case 2:
					for _, x := range appendPacked(nil, wt, v, data) {
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
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num, wt int, v uint64, data []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		ps := profileSample{}
		if len(s.values) > 0 {
			ps.weight = s.values[len(s.values)-1]
		}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wt int, v uint64, data []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
