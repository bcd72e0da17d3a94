package lint

import (
	"go/ast"
	"go/types"
)

// RawGo confines concurrency to the deterministic worker pool. DESIGN
// §2 makes sweeps reproducible by funneling every goroutine through
// experiments.ForEach, which assigns each task its own result slot and
// assembles output in index order. A raw `go` statement — or a
// hand-rolled sync.WaitGroup fan-out — anywhere else would reintroduce
// completion-order nondeterminism the pool exists to remove.
//
// The files sanctioned to hold raw concurrency live in the
// SanctionedConcurrency table (config.go), each entry carrying its
// determinism proof. Everything else needs a "//lint:allow rawgo"
// annotation.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "forbid go statements and sync.WaitGroup outside sanctioned deterministic runners",
	Run:  runRawGo,
}

func runRawGo(pass *Pass) error {
	for _, f := range pass.Files {
		if concurrencySanctioned(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(v.Pos(), "raw go statement outside the worker pool; route concurrency through experiments.ForEach so collection stays deterministic")
			case *ast.SelectorExpr:
				obj := selectorObj(pass.Info, v)
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if _, isType := obj.(*types.TypeName); isType &&
					obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
					pass.Reportf(v.Pos(), "sync.WaitGroup outside the worker pool; hand-rolled fan-out bypasses deterministic collection — use experiments.ForEach")
				}
			}
			return true
		})
	}
	return nil
}
