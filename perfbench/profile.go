package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"sort"
	"strings"
)

// Profile groups: the stack's layers as package names, plus runtime
// (samples with no program frame: GC workers, the scheduler), net (the
// socket path: net, syscall, internal/poll, bufio), workload (the load
// generator: internal/workload and this benchmark) and other.
var groups = []string{"flash", "ftl", "pdl", "storman", "dram", "fs", "server", "cluster", "obs",
	"workload", "runtime", "net", "other"}

// cpuShares accumulates CPU time by group and by raw package.
type cpuShares struct {
	byGroup map[string]int64
	byPkg   map[string]int64
	total   int64
}

func newCPUShares() *cpuShares {
	return &cpuShares{byGroup: map[string]int64{}, byPkg: map[string]int64{}}
}

// frac reports group g's share of the profiled CPU time.
func (c *cpuShares) frac(g string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byGroup[g]) / float64(c.total)
}

// top reports the n innermost-frame packages with the most CPU time.
func (c *cpuShares) top(n int) []string {
	type kv struct {
		k string
		v int64
	}
	var all []kv
	for k, v := range c.byPkg {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v || (all[i].v == all[j].v && all[i].k < all[j].k) })
	var out []string
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, all[i].k)
	}
	return out
}

// pkgOf reports the package path of a symbol such as
// "ssmobile/internal/flash.(*Device).program".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// groupOfPkg maps a package path to a group, or "" for a standard
// library helper that is charged to its caller.
func groupOfPkg(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "ssmobile/internal/"):
		p := strings.TrimPrefix(pkg, "ssmobile/internal/")
		p = strings.TrimPrefix(p, "engine/")
		for _, g := range groups {
			if p == g {
				return g
			}
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "ssmobile/perfbench"):
		return "workload"
	case pkg == "net" || pkg == "syscall" || pkg == "internal/poll" || pkg == "bufio" ||
		pkg == "internal/runtime/syscall":
		return "net"
	}
	return ""
}

// addProfile folds one gzipped CPU profile in. Each sample is charged
// to the innermost frame that belongs to a group, so standard-library
// helpers (sorting, string building, allocation, copying) count toward
// the layer that called them; a sample with no such frame is runtime.
// byPkg keeps the innermost frame's own package, uncharged.
func (c *cpuShares) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var strs []string
	funcName := map[uint64]int64{} // function id → string index
	locFuncs := map[uint64][]uint64{}
	type sample struct {
		locs []uint64
		ns   int64
	}
	var samples []sample
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []int64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 1 {
				s.ns = vals[1]
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	name := func(fid uint64) string {
		i := funcName[fid]
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, s := range samples {
		group, leaf := "", ""
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] { // innermost (inlined) first
				pkg := pkgOf(name(fid))
				if leaf == "" {
					leaf = pkg
				}
				if group == "" {
					group = groupOfPkg(pkg)
				}
			}
			if group != "" {
				break
			}
		}
		if group == "" {
			group = "runtime"
		}
		c.byGroup[group] += s.ns
		c.byPkg[leaf] += s.ns
		c.total += s.ns
	}
	return nil
}

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errors.New("profile: unsupported wire type")
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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
