package driver

import (
	"desiccant/internal/lint"
)

// Standalone runs the analyzers over the packages matching patterns
// (e.g. "./...") in the module rooted at or containing dir, returning
// all findings in deterministic (package, position) order.
//
// Only the targets are loaded in full; every dependency, in the module
// or not, is type-checked signatures-only, since each analyzer reads
// nothing beyond the package it checks.
func Standalone(dir string, patterns []string, analyzers []*lint.Analyzer) ([]lint.Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	sources, targets, err := loadModulePackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	loader := NewLoader(sources, targets)
	var all []lint.Diagnostic
	for _, path := range targets {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		diags, err := lint.RunAnalyzers(loader.Fset, pkg.Files, pkg.Types, pkg.Info, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
