// Package hotpath flags allocating constructs in functions annotated
// //dsi:hotpath — the PR-1 kernel paths (event scheduling, message delivery,
// controller dispatch) whose allocation-free steady state is pinned by
// obs_allocs_test.go and the BenchmarkRunOne allocs/op goldens.
//
// Flagged inside an annotated function:
//
//   - function literals: a closure that escapes allocates its capture
//     record; hot paths use the typed event path (event.AtCall with pooled
//     records) instead;
//   - calls into package fmt: every fmt call boxes its operands and walks
//     reflection;
//   - implicit interface conversions at call sites and explicit interface
//     conversions, when the converted value is not pointer-shaped (pointers,
//     maps, channels, and funcs store directly in the interface word;
//     structs, strings, and integers heap-allocate);
//   - append to a fresh, capacity-free slice (var s []T / s := []T{} /
//     make([]T, 0)): growth reallocates every few appends; hot paths
//     preallocate or reuse pooled buffers;
//   - map indexing (m[k], whether read, write, or comma-ok) and range over a
//     map: every access hashes the key, and map ranges have randomized order
//     besides; hot paths index dense tables (internal/blockmap) instead.
//
// Terminal error paths are exempt, since a simulation that is crashing may
// allocate freely: the arguments of panic(...) are never inspected, and the
// arguments of a call to a //dsi:coldpath function (proto.Env.fail,
// cpu.Proc.Failf) are not inspected when the call sits inside an if, switch,
// or select arm. Unlike panic's, a coldpath call's arguments are evaluated —
// and boxed into its ...any — before the call, whether or not it fails; an
// unguarded call such as p.Assert(ok, "word %d", w) pays that on every
// pass, so its arguments are checked like any other call's.
package hotpath

import (
	"go/ast"
	"go/types"

	"dsisim/internal/analysis"
)

// Analyzer is the hotpath checker.
func Analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "hotpath",
		Doc:  "//dsi:hotpath functions must avoid closures, interface boxing, fmt, un-capped appends, and map access",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for fd := range pass.Directives.Hotpath {
		if fd.Body == nil {
			continue
		}
		c := &checker{pass: pass, fresh: freshSlices(pass, fd)}
		c.walk(fd.Body)
	}
	return nil
}

// freshSlices collects the local slice variables declared without capacity:
// `var s []T`, `s := []T{}` (empty literal), and `s := make([]T, 0)`.
func freshSlices(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	mark := func(name *ast.Ident) {
		if obj := pass.TypesInfo.Defs[name]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				fresh[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				name, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if uncappedSliceExpr(pass, n.Rhs[i]) {
					mark(name)
				}
			}
		}
		return true
	})
	return fresh
}

// uncappedSliceExpr reports whether e builds an empty slice with no
// capacity: []T{} or make([]T, 0).
func uncappedSliceExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		if _, ok := pass.TypeOf(e).Underlying().(*types.Slice); ok {
			return len(e.Elts) == 0
		}
	case *ast.CallExpr:
		ident, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := pass.TypesInfo.Uses[ident].(*types.Builtin); !ok || b.Name() != "make" {
			return false
		}
		if len(e.Args) != 2 {
			return false // a capacity argument was given
		}
		_, isSlice := pass.TypeOf(e.Args[0]).Underlying().(*types.Slice)
		return isSlice
	}
	return false
}

type checker struct {
	pass  *analysis.Pass
	fresh map[types.Object]bool
}

func (c *checker) walk(n ast.Node) {
	// stack holds the ancestors of the node being visited: Inspect calls the
	// visitor with nil when it leaves a node it descended into.
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if !c.visit(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// visit checks one node given its ancestors and reports whether to descend.
func (c *checker) visit(n ast.Node, stack []ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		c.pass.Reportf(n.Pos(),
			"closure in hot path; use the typed event path with a pooled record instead")
		return false // don't double-report the closure's own body
	case *ast.CallExpr:
		if analysis.IsColdCall(c.pass.TypesInfo, c.pass.Directives, n) {
			if isPanic(c.pass.TypesInfo, n) || inBranchArm(stack) {
				return false // terminal error path; arguments are exempt
			}
			c.checkCall(n, true)
			return true
		}
		c.checkCall(n, false)
	case *ast.IndexExpr:
		if t := c.pass.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				c.pass.Reportf(n.Pos(),
					"map index in hot path; use a dense block table (internal/blockmap) instead")
			}
		}
	case *ast.RangeStmt:
		if t := c.pass.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				c.pass.Reportf(n.X.Pos(),
					"range over map in hot path; iterate a dense block table (internal/blockmap) instead")
			}
		}
	}
	return true
}

// isPanic reports whether call is the builtin panic.
func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// inBranchArm reports whether a node with these ancestors runs only when a
// branch is taken: it sits in the body or else block of an if, or in a case
// of a switch, type switch, or select. An if's condition and init statement,
// and a switch's tag, are not arms.
func inBranchArm(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.CaseClause, *ast.CommClause:
			return true
		case *ast.BlockStmt:
			if i > 0 {
				if _, ok := stack[i-1].(*ast.IfStmt); ok {
					return true
				}
			}
		}
	}
	return false
}

// checkCall flags fmt calls, implicit boxing at argument positions, explicit
// interface conversions, and un-capped appends. unguardedCold marks a
// //dsi:coldpath call outside any branch arm, whose boxing findings say how
// to exempt it.
func (c *checker) checkCall(call *ast.CallExpr, unguardedCold bool) {
	info := c.pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Explicit conversion T(x): flag when T is an interface and x boxes.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := c.pass.TypeOf(call.Args[0]); at != nil && boxes(at) {
				c.pass.Reportf(call.Pos(),
					"conversion of %s to interface boxes in hot path", at)
			}
		}
		return
	}

	// fmt.* calls.
	if se, ok := fun.(*ast.SelectorExpr); ok {
		if obj := info.Uses[se.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			c.pass.Reportf(call.Pos(), "fmt.%s call in hot path", se.Sel.Name)
			return
		}
	}

	// Builtin append to a fresh un-capped slice.
	if ident, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[ident].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				c.checkAppend(call)
			}
			return // other builtins take no interface params
		}
	}

	// Implicit interface conversions at argument positions.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := c.pass.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if boxes(at) {
			hint := "pass a pointer-shaped value"
			if unguardedCold {
				hint = "the coldpath call boxes its arguments on every pass; call it inside an if, switch, or select arm"
			}
			c.pass.Reportf(arg.Pos(), "passing %s as %s boxes in hot path (%s)", at, pt, hint)
		}
	}
}

func (c *checker) checkAppend(call *ast.CallExpr) {
	first := ast.Unparen(call.Args[0])
	if uncappedSliceExpr(c.pass, first) {
		c.pass.Reportf(call.Pos(), "append to a fresh un-capped slice in hot path; preallocate capacity")
		return
	}
	if ident, ok := first.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[ident]; obj != nil && c.fresh[obj] {
			c.pass.Reportf(call.Pos(),
				"append to %s, a fresh un-capped slice, in hot path; preallocate capacity or reuse a pooled buffer", ident.Name)
		}
	}
}

// boxes reports whether converting a value of type t to an interface
// heap-allocates. Pointer-shaped values (pointers, maps, channels, funcs,
// unsafe.Pointer) store directly in the interface's data word.
func boxes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}
