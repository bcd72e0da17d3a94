package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"

	"desiccant/internal/lint"
)

// vetConfig mirrors the JSON unit-checking config the go command hands
// a -vettool for every package (the same contract
// golang.org/x/tools/go/analysis/unitchecker implements).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunVet executes one unit of the `go vet -vettool` protocol: read the
// package config, type-check against the export data the go command
// prepared, run the analyzers, emit diagnostics (plain text on stderr,
// or the vet JSON tree on stdout when jsonOut is set), and return the
// process exit code (0 clean, 1 error, 2 findings).
func RunVet(cfgFile string, analyzers []*lint.Analyzer, jsonOut bool) int {
	cfg, err := readVetConfig(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fset := token.NewFileSet()

	// Dependency units exist only to produce facts. Standard-library
	// units get an empty facts file (nothing there is annotated);
	// in-module units get real facts so annotations flow to their
	// dependents. Fact production never fails
	// a build: on any error the unit degrades to empty facts.
	if cfg.VetxOnly {
		var facts *lint.PackageFacts
		if !cfg.Standard[cfg.ImportPath] {
			if pkg, files, info, err := typecheckUnit(fset, cfg); err == nil {
				facts = lint.ComputeFacts(fset, files, pkg, info)
			}
		}
		if err := writeVetx(cfg, facts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	diags, facts, err := analyzeUnit(fset, cfg, analyzers, readVetxFacts(cfg))
	if err != nil {
		writeVetx(cfg, nil) // keep the protocol satisfied for dependents
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if err := writeVetx(cfg, facts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if jsonOut {
		printJSONTree(os.Stdout, cfg.ID, analyzers, diags)
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func readVetConfig(name string) (*vetConfig, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parse vet config %s: %w", name, err)
	}
	return cfg, nil
}

// writeVetx stores the unit's facts where the go command told it to
// (cfg.VetxOutput); nil facts produce an empty file, which the decoder
// on the consuming side treats as "no facts".
func writeVetx(cfg *vetConfig, facts *lint.PackageFacts) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	data := []byte{}
	if facts != nil {
		data = lint.EncodeFacts(facts)
	}
	return os.WriteFile(cfg.VetxOutput, data, 0o666)
}

// readVetxFacts loads dependency facts from the .vetx files listed in
// the config. Unreadable or foreign payloads are skipped: facts
// degrade, they never fail a run.
func readVetxFacts(cfg *vetConfig) lint.FactSet {
	fs := make(lint.FactSet, len(cfg.PackageVetx))
	for path, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			continue
		}
		if pf := lint.DecodeFacts(data); pf != nil {
			fs[path] = pf
		}
	}
	return fs
}

// typecheckUnit parses and type-checks one protocol unit against the
// export data the go command prepared.
func typecheckUnit(fset *token.FileSet, cfg *vetConfig) (*types.Package, []*ast.File, *types.Info, error) {
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	// Resolve imports from the export data the go command compiled;
	// ImportMap translates source-level paths (vendoring) first.
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	conf := types.Config{
		Importer:    importer.ForCompiler(fset, compiler, lookup),
		GoVersion:   cfg.GoVersion,
		FakeImportC: true,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return pkg, files, info, nil
}

func analyzeUnit(fset *token.FileSet, cfg *vetConfig, analyzers []*lint.Analyzer, imports lint.FactSet) ([]lint.Diagnostic, *lint.PackageFacts, error) {
	pkg, files, info, err := typecheckUnit(fset, cfg)
	if err != nil {
		return nil, nil, err
	}
	return lint.Analyze(lint.Config{
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		Info:      info,
		Analyzers: analyzers,
		Imports:   imports,
	})
}

// printJSONTree emits the vet JSON output shape:
// {"pkg": {"analyzer": [{"posn": ..., "message": ...}, ...]}}.
func printJSONTree(w io.Writer, pkgID string, analyzers []*lint.Analyzer, diags []lint.Diagnostic) {
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := make(map[string][]jsonDiag)
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{
			Posn:    d.Pos.String(),
			Message: d.Message,
		})
	}
	names := make([]string, 0, len(byAnalyzer))
	for name := range byAnalyzer {
		names = append(names, name)
	}
	sort.Strings(names)
	tree := map[string]map[string][]jsonDiag{pkgID: {}}
	for _, name := range names {
		tree[pkgID][name] = byAnalyzer[name]
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(tree)
}

// VetFlags prints the flag description JSON the go command requests
// with -flags before driving a vettool.
func VetFlags(w io.Writer) {
	type flagDesc struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	json.NewEncoder(w).Encode([]flagDesc{
		{Name: "json", Bool: true, Usage: "emit JSON output"},
	})
}
