// Package driver loads and type-checks Go packages for the
// determinism-guard analyzers using only the standard library:
// Standalone enumerates packages with `go list -deps -json`,
// type-checks them from source, and runs the analyzers on the packages
// its patterns match.
//
// The usual home for this machinery is golang.org/x/tools
// (go/packages); this module builds hermetically with zero external
// dependencies, so the subset the suite needs is reimplemented here on
// go/parser + go/types.
package driver

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"runtime"
)

// A Source names the files that make up one importable package.
type Source struct {
	// Path is the import path.
	Path string
	// Files are absolute paths of the package's Go files (build-tag
	// filtering already applied by whoever assembled the Source).
	Files []string
}

// A Package is one type-checked package.
type Package struct {
	// Path is the import path.
	Path string
	// Files are the parsed syntax trees (with comments).
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info is populated only for packages loaded in full (analysis
	// targets); dependency packages carry a nil Info.
	Info *types.Info
}

// A Loader type-checks packages from a source map, recursively and
// with caching. Analysis targets ("full" packages) get function bodies
// and type info; dependencies are checked signatures-only, which is
// both faster and more robust (assembly-backed stdlib bodies never
// matter to the analyzers).
type Loader struct {
	// Fset positions all packages loaded through this loader.
	Fset *token.FileSet

	sources map[string]*Source
	full    map[string]bool
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader over sources; import paths listed in full
// are loaded with bodies and type info.
func NewLoader(sources map[string]*Source, full []string) *Loader {
	l := &Loader{
		Fset:    token.NewFileSet(),
		sources: sources,
		full:    make(map[string]bool, len(full)),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	for _, p := range full {
		l.full[p] = true
	}
	return l
}

// Load type-checks the package at an import path (and, transitively,
// its dependencies), returning a cached result on repeat calls.
func (l *Loader) Load(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{Path: path, Types: types.Unsafe}, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	src := l.sources[path]
	if src == nil {
		// Standard-library-internal vendoring: net imports
		// "golang.org/x/net/..." which `go list` reports as
		// "vendor/golang.org/x/net/...".
		if v := l.sources["vendor/"+path]; v != nil {
			src = v
		} else {
			return nil, fmt.Errorf("no source for package %q", path)
		}
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files := make([]*ast.File, 0, len(src.Files))
	for _, name := range src.Files {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}

	var info *types.Info
	if l.full[path] {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
	}
	conf := types.Config{
		Importer:         importerFunc(func(p string) (*types.Package, error) { return l.importTypes(p) }),
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: !l.full[path],
		FakeImportC:      true,
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) importTypes(path string) (*types.Package, error) {
	pkg, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
