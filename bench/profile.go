package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerCPU is one CPU profile's host time split across the simulator's
// layers: the internal/ packages, "go" for the Go runtime's malloc, GC
// and scheduler, and "bench" for the harness itself. Values are
// CPU-seconds.
type layerCPU struct {
	Total float64            `json:"total"`
	Self  map[string]float64 `json:"self"` // leaf frame's layer; sums to Total
	Cum   map[string]float64 `json:"cum"`  // any frame of the layer on the stack
	// OsmemRead and OsmemWrite split osmem's cumulative time into the
	// page-accounting reads and the page-state writes.
	OsmemRead  float64 `json:"osmem_read"`
	OsmemWrite float64 `json:"osmem_write"`
	// Fit is cumulative under calibrate.Fit and calibrate.characterize,
	// the fit's loss evaluation, whose closures run on pool goroutines
	// without a Fit frame. Metamorphic is cumulative under
	// calibrate.RunMetamorphic, its closures included.
	Fit         float64 `json:"fit"`
	Metamorphic float64 `json:"metamorphic"`
}

const modulePrefix = "desiccant/internal/"

// funcPackage returns the import path of a profiled function name such
// as "desiccant/internal/osmem.(*Region).Touch" or
// "desiccant/internal/experiments.runIndexed[go.shape.struct { ... }].func1".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments hold dots and slashes of their own
	}
	slash := strings.LastIndexByte(name, '/') + 1
	if dot := strings.IndexByte(name[slash:], '.'); dot >= 0 {
		return name[:slash+dot]
	}
	return name
}

func isGoRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf maps a function name to its layer, or "" for standard-library
// code outside the runtime, which is charged to its caller.
func layerOf(name string) string {
	pkg := funcPackage(name)
	switch {
	case isGoRuntime(pkg):
		return "go"
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, modulePrefix):
		layer, _, _ := strings.Cut(pkg[len(modulePrefix):], "/")
		return layer
	}
	return ""
}

func isOsmemRead(name string) bool {
	for _, m := range []string{"(*AddressSpace).Usage", "(*AddressSpace).USS", "(*AddressSpace).PSS", "(*AddressSpace).RSS"} {
		if name == modulePrefix+"osmem."+m {
			return true
		}
	}
	method, ok := strings.CutPrefix(name, modulePrefix+"osmem.(*Region).")
	return ok && strings.Contains(method, "Resident")
}

func isOsmemWrite(name string) bool {
	method, ok := strings.CutPrefix(name, modulePrefix+"osmem.(*Region).")
	return ok && (strings.HasPrefix(method, "Touch") || strings.HasPrefix(method, "Release"))
}

// hasFuncPrefix reports whether name is fn itself or one of its
// closures.
func hasFuncPrefix(name, fn string) bool {
	rest, ok := strings.CutPrefix(name, fn)
	return ok && (rest == "" || rest[0] == '.' || rest[0] == '[')
}

// attribute splits a gzipped CPU profile across layers.
func attribute(r io.Reader) (*layerCPU, error) {
	p, err := parseProfile(r)
	if err != nil {
		return nil, err
	}
	return attributeStacks(p.stacks, p.values), nil
}

// attributeStacks splits CPU time across layers. Each stack lists
// function names leaf first; values are nanoseconds.
func attributeStacks(stacks [][]string, values []int64) *layerCPU {
	t := &layerCPU{Self: map[string]float64{}, Cum: map[string]float64{}}
	for i, stack := range stacks {
		v := float64(values[i]) / 1e9
		t.Total += v
		// The root frames every goroutine starts from (runtime.goexit,
		// runtime.main) are not time spent in the runtime.
		for len(stack) > 1 && layerOf(stack[len(stack)-1]) == "go" && hasNonRuntime(stack) {
			stack = stack[:len(stack)-1]
		}
		self := "go"
		if layerOf(stack[0]) != "go" {
			for _, fn := range stack {
				if l := layerOf(fn); l != "" {
					self = l
					break
				}
			}
		}
		t.Self[self] += v
		seen := map[string]bool{}
		var read, write, fit, meta bool
		for _, fn := range stack {
			if l := layerOf(fn); l != "" && !seen[l] {
				seen[l] = true
				t.Cum[l] += v
			}
			read = read || isOsmemRead(fn)
			write = write || isOsmemWrite(fn)
			fit = fit || hasFuncPrefix(fn, modulePrefix+"calibrate.Fit") || hasFuncPrefix(fn, modulePrefix+"calibrate.characterize")
			meta = meta || hasFuncPrefix(fn, modulePrefix+"calibrate.RunMetamorphic")
		}
		if read {
			t.OsmemRead += v
		}
		if write {
			t.OsmemWrite += v
		}
		if fit {
			t.Fit += v
		}
		if meta {
			t.Metamorphic += v
		}
	}
	return t
}

func hasNonRuntime(stack []string) bool {
	for _, fn := range stack {
		if layerOf(fn) != "go" {
			return true
		}
	}
	return false
}

// profile is the part of a pprof CPU profile attribution needs.
type profile struct {
	stacks [][]string // function names, leaf first, inlined frames expanded
	values []int64    // CPU nanoseconds per stack
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto) with
// the standard library alone.
func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		types     []int64 // sample_type[i].type, a string index
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
	)
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return walkFields(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
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
			var funcs []uint64
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	cpu := -1
	for i, t := range types {
		if t >= 0 && t < int64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	p := &profile{}
	for _, s := range samples {
		if cpu >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if name := funcNames[fn]; name >= 0 && name < int64(len(strs)) {
					stack = append(stack, strs[name])
				}
			}
		}
		if len(stack) > 0 {
			p.stacks = append(p.stacks, stack)
			p.values = append(p.values, s.values[cpu])
		}
	}
	return p, nil
}

// walkFields calls fn for every field of a protobuf message: v holds a
// varint's value, b a length-delimited field's bytes. Fixed-width
// fields are skipped; profile.proto has none that attribution reads.
func walkFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b set) or not.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
