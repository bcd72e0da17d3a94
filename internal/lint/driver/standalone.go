package driver

import (
	"desiccant/internal/lint"
)

// Standalone runs the analyzers over the packages matching patterns
// (e.g. "./...") in the module rooted at or containing dir, returning
// all findings in deterministic (package, position) order.
//
// Every module package — target or dependency — is loaded in full and
// has its facts computed in `go list -deps` (dependency-first) order,
// so by the time a package is analyzed the facts of everything it
// imports are already in the set.
func Standalone(dir string, patterns []string, analyzers []*lint.Analyzer) ([]lint.Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	sources, targets, module, err := loadModulePackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	loader := NewLoader(sources, module)
	isTarget := make(map[string]bool, len(targets))
	for _, t := range targets {
		isTarget[t] = true
	}
	facts := make(lint.FactSet)
	var all []lint.Diagnostic
	for _, path := range module {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		if !isTarget[path] {
			// Dependency inside the module: contribute facts only.
			facts[path] = lint.ComputeFacts(loader.Fset, pkg.Files, pkg.Types, pkg.Info)
			continue
		}
		diags, pf, err := lint.Analyze(lint.Config{
			Fset:      loader.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			Analyzers: analyzers,
			Imports:   facts,
		})
		if err != nil {
			return nil, err
		}
		facts[path] = pf
		all = append(all, diags...)
	}
	return all, nil
}
