package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocFree enforces the //lint:allocfree annotation: a function so
// marked must not allocate on its steady-state path. The hot paths —
// the osmem run-length operations and the sim event ordering — are
// called millions of times per run; an accidental allocation there
// is a 2-10x regression that only shows up in benchmarks long after
// the commit that introduced it. The annotation turns the property
// into a build-time check.
//
// The walk is an escape heuristic, deliberately conservative:
//
//   - make, new, slice/map literals, and &composite{} are allocations
//   - append is flagged (growth may allocate); a pre-sized or
//     amortized append is documented with //lint:allow allocfree
//   - closures, string concatenation, string<->[]byte conversions,
//     and conversions or assignments that box a value into an
//     interface are flagged
//   - a call is permitted only when the callee is itself marked
//     //lint:allocfree (same package via the package facts, other
//     packages via their imported facts), comes from a safelisted
//     pure package (math, math/bits), or is a non-allocating builtin
//   - dynamic calls (function values, interface methods) cannot be
//     verified and are flagged
//
// panic() and its arguments are exempt: a panicking run has already
// left the steady state, and formatting the failure message is worth
// the allocation.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "enforce //lint:allocfree: annotated functions must not allocate on the steady-state path",
	Run:  runAllocFree,
}

// allocFreeSafePkgs lists packages whose exported functions never
// allocate and may be called freely from annotated bodies.
var allocFreeSafePkgs = map[string]bool{
	"math":      true,
	"math/bits": true,
}

func runAllocFree(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			posn := pass.Fset.Position(fd.Pos())
			if !pass.dir.allocFreeAt(posn.Line, posn.Filename) {
				continue
			}
			checkAllocFreeBody(pass, fd)
		}
	}
	return nil
}

func checkAllocFreeBody(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			return checkAllocCall(pass, v)
		case *ast.CompositeLit:
			t := pass.TypeOf(v)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(v.Pos(), "slice literal allocates a backing array")
			case *types.Map:
				pass.Reportf(v.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, isLit := ast.Unparen(v.X).(*ast.CompositeLit); isLit {
					pass.Reportf(v.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			pass.Reportf(v.Pos(), "closure may allocate its captured environment")
			return false
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isStringType(pass.TypeOf(v)) {
				pass.Reportf(v.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			checkInterfaceAssign(pass, v)
		case *ast.GoStmt:
			pass.Reportf(v.Pos(), "go statement allocates a goroutine stack (and is rawgo's business anyway)")
		}
		return true
	})
}

// checkAllocCall vets one call inside an allocfree body. The return
// value feeds ast.Inspect: false prunes the subtree (panic arguments).
func checkAllocCall(pass *Pass, call *ast.CallExpr) bool {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		t := pass.TypeOf(call.Fun)
		if t != nil {
			if types.IsInterface(t.Underlying()) && len(call.Args) == 1 {
				// Interface-to-interface conversions rewrap the same
				// (type, pointer) word pair; only a concrete operand
				// boxes.
				if at := pass.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at.Underlying()) {
					pass.Reportf(call.Pos(), "conversion to an interface boxes the value")
				}
			}
			if allocConversion(pass, t, call) {
				pass.Reportf(call.Pos(), "string/[]byte conversion copies and allocates")
			}
		}
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make allocates")
			case "new":
				pass.Reportf(call.Pos(), "new allocates")
			case "append":
				pass.Reportf(call.Pos(), "append may grow the backing array; pre-size the slice or document the amortized growth with //lint:allow allocfree")
			case "panic":
				return false // failure path: formatting the message is fine
			}
			return true
		}
	}
	fn := staticCallee(pass.Info, call)
	if fn == nil {
		pass.Reportf(call.Pos(), "dynamic call: allocfree cannot verify the callee")
		return true
	}
	if fn.Pkg() == nil {
		return true // error.Error and friends from the universe scope
	}
	if fn.Pkg() == pass.Pkg {
		if pass.Self != nil && pass.Self.AllocFree[FuncKey(fn)] {
			return true
		}
		pass.Reportf(call.Pos(), "calls %s, which is not marked //lint:allocfree", FuncKey(fn))
		return true
	}
	path := fn.Pkg().Path()
	if allocFreeSafePkgs[path] {
		return true
	}
	if dep := pass.Imports.Lookup(path); dep != nil && dep.AllocFree[FuncKey(fn)] {
		return true
	}
	pass.Reportf(call.Pos(), "calls %s.%s, which is not marked //lint:allocfree in its package", fn.Pkg().Name(), FuncKey(fn))
	return true
}

// allocConversion matches string<->[]byte/[]rune conversions, which
// copy.
func allocConversion(pass *Pass, to types.Type, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	from := pass.TypeOf(call.Args[0])
	if from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

// checkInterfaceAssign flags assignments that box a concrete value
// into an interface-typed destination.
func checkInterfaceAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := pass.TypeOf(as.Lhs[i])
		rt := pass.TypeOf(as.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if !types.IsInterface(lt.Underlying()) || types.IsInterface(rt.Underlying()) {
			continue
		}
		if b, isBasic := rt.(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(as.Rhs[i].Pos(), "assignment boxes %s into an interface", rt.String())
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
