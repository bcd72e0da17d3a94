// Package lint implements the determinism-guard analyzers for the
// desiccant simulation. Every figure the repo reproduces is credible
// only because a run is a pure function of (seed, parameters): CSVs are
// byte-identical across -parallel settings, machines, and Go releases.
// The analyzers in this package make the invariants that property rests
// on checkable at build time:
//
//   - simtime:  no wall-clock or OS nondeterminism (time.Now, global
//     math/rand, crypto/rand, os.Getenv, ...) in simulation code
//   - maporder: no map-iteration order leaking into slices, float
//     accumulators, or emitted output
//   - rawgo:    no raw goroutines or sync.WaitGroup outside the
//     deterministic worker pool (internal/experiments/parallel.go)
//   - rngshare: no *sim.RNG shared between tasks of the worker pool
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API (Analyzer, Pass, Reportf) but is implemented with the standard
// library only, because this module builds hermetically with zero
// external dependencies. cmd/desiccant-lint drives the analyzers
// through driver.Standalone.
//
// # Escape hatch
//
// A finding is suppressed by an explicit annotation on the offending
// line or on the line directly above it:
//
//	started := time.Now() //lint:allow simtime
//
// Several analyzer names may follow one directive. The annotation is
// the only sanctioned way to keep a violation: it marks intent at the
// use site and is greppable.
//
// # Scope
//
// Analyzers inspect non-test, non-generated files only. Tests may
// legitimately time things and spawn goroutines to provoke races; the
// determinism contract binds the simulation and its CLIs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one determinism check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks could migrate
// to the upstream framework without rewriting their Run functions.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer
	// enforces and why.
	Doc string
	// Run inspects one package via the Pass and reports findings.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	// Analyzer is the check this pass executes.
	Analyzer *Analyzer
	// Fset maps positions for all Files.
	Fset *token.FileSet
	// Files are the package's syntax trees, already filtered to the
	// files in scope (test and generated files are excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the package's type information (Types, Defs, Uses,
	// Selections, Implicits are populated).
	Info *types.Info

	dir    *directives
	report func(Diagnostic)
}

// A Diagnostic is one finding, already positioned.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the check that produced it.
	Analyzer string
	// Message describes the violation; it begins with "<analyzer>:".
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Pos, d.Message)
}

// Reportf records a finding at pos unless a //lint:allow directive for
// this analyzer covers the line. Suppressions are tracked: a directive
// that never fires is reported as stale after the run.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	posn := p.Fset.Position(pos)
	if p.dir.allowed(posn, p.Analyzer.Name) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, p.Analyzer.Name+":") {
		msg = p.Analyzer.Name + ": " + msg
	}
	p.report(Diagnostic{Pos: posn, Analyzer: p.Analyzer.Name, Message: msg})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

var generatedRE = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// inScope reports whether a file is subject to the determinism
// analyzers: test files, the generated test main, and files carrying
// the standard generated-code marker are exempt.
func inScope(fset *token.FileSet, f *ast.File) bool {
	name := fset.Position(f.Pos()).Filename
	base := name
	if i := strings.LastIndexAny(base, `/\`); i >= 0 {
		base = base[i+1:]
	}
	if strings.HasSuffix(base, "_test.go") || base == "_testmain.go" {
		return false
	}
	for _, cg := range f.Comments {
		if cg.End() > f.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRE.MatchString(c.Text) {
				return false
			}
		}
	}
	return true
}

// RunAnalyzers executes each analyzer against one type-checked package
// and returns all findings sorted by position. files must be parsed
// with comments (the directives live there). After the analyzers run,
// //lint:allow hygiene is audited: directives naming unknown
// analyzers, and directives whose analyzer ran without suppressing
// anything, are reported under the "suppress" name.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	scoped := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if inScope(fset, f) {
			scoped = append(scoped, f)
		}
	}
	dir := scanDirectives(fset, scoped)
	var diags []Diagnostic
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    scoped,
			Pkg:      pkg,
			Info:     info,
			dir:      dir,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = append(diags, suppressDiags(dir, ran)...)
	sortDiags(diags)
	return diags, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pkgPathIs reports whether a package path denotes pkg, accepting both
// the in-module form ("desiccant/internal/sim") and the bare form the
// analyzer test fixtures use ("sim").
func pkgPathIs(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// selectorObj resolves the object a qualified selector (pkg.Name or
// expr.Field) uses, or nil.
func selectorObj(info *types.Info, sel *ast.SelectorExpr) types.Object {
	return info.Uses[sel.Sel]
}

// rootIdent returns the leftmost identifier of a selector/index/star
// chain, or nil (e.g. the x of x.a.b[i].c).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside the
// half-open source interval [pos, end) — used to distinguish closure
// captures from locals.
func declaredWithin(obj types.Object, pos, end token.Pos) bool {
	return obj.Pos() >= pos && obj.Pos() < end
}
