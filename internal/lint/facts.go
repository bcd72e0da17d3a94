package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// This file is the generation-2 facts layer: per-package summaries of
// exported declarations that flow between analyzers and — through the
// driver — across package boundaries. Facts carry exactly the
// information that is NOT recoverable from type information at a use
// site: source annotations (//lint:unit, //lint:allocfree).
// Everything name-derivable (a parameter called nPages) is
// re-derived at the use site from the types.Object, so facts stay
// small.
//
// The driver computes facts for every module package in `go list
// -deps` (dependency-first) order and keeps them in memory: the
// FactSet handed to every Pass holds the facts of everything the
// package imports.

// A Unit is one of the scalar currencies the codebase mixes freely in
// plain integers: memory sizes in bytes, page counts, and sim-clock
// ticks (µs). The unitcheck analyzer tracks them through expressions.
type Unit string

// The three tracked currencies. The empty Unit means "unknown /
// dimensionless" and never participates in a finding.
const (
	UnitBytes Unit = "bytes"
	UnitPages Unit = "pages"
	UnitTicks Unit = "ticks"
)

// ParseUnit maps a directive word to a Unit, or "" if unrecognized.
func ParseUnit(s string) Unit {
	switch Unit(s) {
	case UnitBytes, UnitPages, UnitTicks:
		return Unit(s)
	}
	return ""
}

// A UnitSig records annotation-declared currencies for a function's
// parameters and results ("" where undeclared). Name-inferred units
// are deliberately absent: parameter names travel with the imported
// types, so the use site re-infers them.
type UnitSig struct {
	Params  []Unit
	Results []Unit
}

func (s *UnitSig) empty() bool {
	for _, u := range s.Params {
		if u != "" {
			return false
		}
	}
	for _, u := range s.Results {
		if u != "" {
			return false
		}
	}
	return true
}

// PackageFacts is one package's exported summary.
type PackageFacts struct {
	// Path is the package's import path.
	Path string
	// Units maps a function key ("Func" or "Type.Method") to its
	// annotation-declared unit signature.
	Units map[string]*UnitSig
	// FieldUnits maps "Type.Field" to an annotation-declared unit.
	FieldUnits map[string]Unit
	// AllocFree holds the function keys annotated //lint:allocfree.
	// Callers inside other allocfree bodies may rely on them; the
	// declaring package enforces the body.
	AllocFree map[string]bool
}

// A FactSet holds the facts of every package visible to a pass, keyed
// by import path.
type FactSet map[string]*PackageFacts

// Lookup returns the facts for an import path, or nil.
func (fs FactSet) Lookup(path string) *PackageFacts {
	if fs == nil {
		return nil
	}
	return fs[path]
}

// FuncKey names a function object in fact tables: "Func" for package
// functions, "Type.Method" for methods (pointer and value receivers
// share a key).
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return fn.Name()
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if n, isNamed := t.(*types.Named); isNamed {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// fieldKey names a struct field in fact tables, resolving the owning
// named type from the field object's position inside its package's
// scope is not possible in general; callers supply the type name.
func fieldKey(typeName, field string) string { return typeName + "." + field }

// ComputeFacts builds the fact summary for one type-checked package.
// Only non-test, non-generated files contribute (same scope rule as
// the analyzers).
func ComputeFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *PackageFacts {
	scoped := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if inScope(fset, f) {
			scoped = append(scoped, f)
		}
	}
	dir := scanDirectives(fset, scoped)
	f := &PackageFacts{Path: pkg.Path()}

	// Unit signatures and allocfree markers from declarations.
	for _, file := range scoped {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				key := FuncKey(fn)
				if dir.allocFreeAt(fset.Position(d.Pos()).Line, fset.Position(d.Pos()).Filename) {
					if f.AllocFree == nil {
						f.AllocFree = make(map[string]bool)
					}
					f.AllocFree[key] = true
				}
				if sig := unitSigFor(fset, dir, d, fn); sig != nil && !sig.empty() {
					if f.Units == nil {
						f.Units = make(map[string]*UnitSig)
					}
					f.Units[key] = sig
				}
			case *ast.GenDecl:
				collectFieldUnits(fset, dir, info, d, f)
			}
		}
	}

	return f
}

// unitSigFor assembles a function's annotation-declared unit
// signature from //lint:unit name=unit pairs on or above the decl.
func unitSigFor(fset *token.FileSet, dir *directives, d *ast.FuncDecl, fn *types.Func) *UnitSig {
	posn := fset.Position(d.Pos())
	pairs := dir.unitPairsAt(posn.Filename, posn.Line)
	if pairs == nil {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	out := &UnitSig{
		Params:  make([]Unit, sig.Params().Len()),
		Results: make([]Unit, sig.Results().Len()),
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if u, ok := pairs[sig.Params().At(i).Name()]; ok {
			out.Params[i] = u
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		name := sig.Results().At(i).Name()
		if u, ok := pairs[name]; ok && name != "" {
			out.Results[i] = u
		}
	}
	if u, ok := pairs["ret"]; ok && len(out.Results) > 0 {
		out.Results[0] = u
	}
	return out
}

// collectFieldUnits records //lint:unit annotations on struct fields
// of type declarations.
func collectFieldUnits(fset *token.FileSet, dir *directives, info *types.Info, d *ast.GenDecl, f *PackageFacts) {
	if d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			posn := fset.Position(field.Pos())
			u := dir.unitAt(posn.Filename, posn.Line)
			if u == "" {
				continue
			}
			for _, name := range field.Names {
				if f.FieldUnits == nil {
					f.FieldUnits = make(map[string]Unit)
				}
				f.FieldUnits[fieldKey(ts.Name.Name, name.Name)] = u
			}
		}
	}
}

// converterConsts are the byte/page conversion constants: they carry
// no unit themselves (PageSize is bytes-per-page) and instead convert
// the other operand — pages*PageSize is bytes, bytes>>PageShift is
// pages. Matched by name so the hermetic fixtures and internal/osmem
// hit the same path.
func isConverterConst(name string) bool {
	return name == "PageSize" || name == "PageShift"
}

// InferUnitFromName derives a currency from an identifier using word
// segmentation: nBytes, heap_bytes and CacheBytes are bytes; nPages,
// residentPages are pages; tick counters are ticks. Conversion
// constants (PageSize, PageShift) and non-scalar names yield "".
func InferUnitFromName(name string) Unit {
	if isConverterConst(name) {
		return ""
	}
	for _, w := range splitWords(name) {
		switch w {
		case "byte", "bytes":
			return UnitBytes
		case "page", "pages", "pfn":
			return UnitPages
		case "tick", "ticks":
			return UnitTicks
		}
	}
	return ""
}

// splitWords segments an identifier into lowercase words at underscore
// and camelCase boundaries ("residentPages" → resident, pages;
// "RSSBytes" → rss, bytes).
func splitWords(name string) []string {
	var words []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			words = append(words, strings.ToLower(string(cur)))
			cur = cur[:0]
		}
	}
	runes := []rune(name)
	for i, r := range runes {
		switch {
		case r == '_' || unicode.IsDigit(r):
			flush()
		case unicode.IsUpper(r):
			// Boundary at lower→Upper and at the last upper of an
			// acronym run (RSSBytes → RSS | Bytes).
			if i > 0 && (unicode.IsLower(runes[i-1]) ||
				(i+1 < len(runes) && unicode.IsLower(runes[i+1]) && unicode.IsUpper(runes[i-1]))) {
				flush()
			}
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return words
}

// unitableType reports whether a type can carry a currency: the word
// inference and annotation machinery applies only to scalar kinds wide
// enough to hold a size or a count. Small integers (uint8/int8/uint16)
// are states and masks, never quantities; excluding them keeps packed
// page-state bytes out of the analysis.
func unitableType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int, types.Int32, types.Int64,
		types.Uint, types.Uint32, types.Uint64, types.Uintptr,
		types.Float32, types.Float64,
		types.UntypedInt, types.UntypedFloat:
		return true
	}
	return false
}

// isSimTimeType matches sim.Time and sim.Duration, the named tick
// currencies.
func isSimTimeType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pkgPathIs(obj.Pkg().Path(), "sim") {
		return false
	}
	return obj.Name() == "Time" || obj.Name() == "Duration"
}
