package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder reports `for range` over a map whose body has an
// order-sensitive effect: appending to a buffer that outlives the loop,
// accumulating into a float or string (bitwise order-dependent), writing
// a slice element at a loop-order-dependent index, or calling an
// emitting method (mpi.Comm traffic or Write/Encode/Append-style sinks)
// on something outside the loop. Go randomizes map iteration order per
// run, so any such loop feeds nondeterminism straight into exchange
// frames, per-rank output, or the virtual clock — the bug class behind
// PR 5's "cells build in ascending id order" fix. Order-insensitive
// bodies are fine: integer/bitmask accumulation, stores keyed by the
// map key (into another map, or a slice indexed by the loop variables),
// delete on the ranged map, and the collect-keys-then-sort idiom (an
// appended slice passed to sort.*/slices.* in the same function is not
// flagged).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose body appends to exchange/frame/send buffers, accumulates " +
		"floats, or emits per-rank output: map order is random per run, so the effect is nondeterministic",
	Scope: func(relDir string) bool {
		return relDir == "internal" || strings.HasPrefix(relDir, "internal/")
	},
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		// One pass with an explicit ancestor stack: each map-range needs
		// its enclosing function body for the sort-idiom check.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(pass, rng.X) {
				return true
			}
			checkMapRange(pass, rng, enclosingFuncBody(stack))
			return true
		})
	}
	return nil
}

func isMapType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Map)
	return ok
}

func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// checkMapRange reports the first order-sensitive effect in one
// map-range body. The diagnostic lands on the `for` line so a single
// //vet:allow mark covers the loop.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	inLoop := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
	}
	rangedObj, _ := rootObject(pass.TypesInfo, rng.X)

	var offense string
	report := func(format string, args ...any) {
		if offense == "" {
			offense = fmt.Sprintf(format, args...)
		}
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if offense != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, n, inLoop, funcBody, report)
		case *ast.IncDecStmt:
			if obj, _ := rootObject(pass.TypesInfo, n.X); obj != nil && !inLoop(obj) && !isIntegerExpr(pass, n.X) {
				report("%s of non-integer %s outside the loop is order-sensitive", n.Tok, exprString(n.X))
			}
		case *ast.CallExpr:
			checkMapRangeCall(pass, rng, n, inLoop, rangedObj, report)
		}
		return true
	})
	if offense != "" {
		pass.Reportf(rng.Pos(), "map iteration order is random per run: %s; iterate sorted keys instead (or //vet:allow maporder with a reason)", offense)
	}
}

func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt, inLoop func(types.Object) bool, funcBody *ast.BlockStmt, report func(string, ...any)) {
	for i, lhs := range as.Lhs {
		obj, _ := rootObject(pass.TypesInfo, lhs)
		if obj == nil || inLoop(obj) {
			continue
		}
		switch as.Tok {
		case token.DEFINE:
			continue
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			// Integer accumulation commutes exactly; float and string
			// accumulation depend on evaluation order bit-for-bit.
			if !isIntegerExpr(pass, lhs) {
				report("%s %s on non-integer %s accumulates in map order", exprString(lhs), as.Tok, exprString(lhs))
			}
			continue
		case token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			continue // bitmask accumulation commutes
		case token.ASSIGN:
		default:
			report("%s %s inside map iteration is order-sensitive", exprString(lhs), as.Tok)
			continue
		}
		// Plain `=` to something that outlives the loop.
		switch lv := lhs.(type) {
		case *ast.IndexExpr:
			tv, ok := pass.TypesInfo.Types[lv.X]
			if ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					continue // per-key store into another map
				}
			}
			if exprMentionsLoopVars(pass, lv.Index, rng) {
				continue // slice slot addressed by the map key: per-key store
			}
			report("write to %s at a loop-order-dependent index", exprString(lv))
		default:
			if i < len(as.Rhs) || len(as.Rhs) == 1 {
				rhs := as.Rhs[0]
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				}
				// append-to-outer: nondeterministic element order unless
				// the slice is sorted afterwards in this function.
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") {
					if sortedLater(pass, funcBody, lhs) {
						continue
					}
					report("append to %s records elements in map order", exprString(lhs))
					continue
				}
				if isConstExpr(pass, rhs) {
					continue // idempotent flag set, e.g. `found = true`
				}
				report("assignment to %s keeps the last value map order happens to visit", exprString(lhs))
			}
		}
	}
}

func checkMapRangeCall(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr, inLoop func(types.Object) bool, rangedObj types.Object, report func(string, ...any)) {
	// delete on the map being ranged is explicitly sanctioned by the
	// spec; copy into an outer buffer is an ordered write.
	if isBuiltin(pass, call.Fun, "delete") {
		if len(call.Args) > 0 {
			if obj, _ := rootObject(pass.TypesInfo, call.Args[0]); obj != nil && obj == rangedObj {
				return
			}
		}
	}
	if isBuiltin(pass, call.Fun, "copy") && len(call.Args) > 0 {
		if obj, _ := rootObject(pass.TypesInfo, call.Args[0]); obj != nil && !inLoop(obj) {
			report("copy into %s writes in map order", exprString(call.Args[0]))
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	obj, _ := rootObject(pass.TypesInfo, sel.X)
	if obj == nil || inLoop(obj) {
		return
	}
	if isCommType(selection.Recv()) {
		report("%s call on the communicator charges virtual time (or sends) in map order", exprString(sel))
		return
	}
	name := sel.Sel.Name
	for _, prefix := range [...]string{"Write", "Print", "Encode", "Append", "Add", "Push", "Send", "Emit", "Insert"} {
		if strings.HasPrefix(name, prefix) {
			report("%s call emits output in map order", exprString(sel))
			return
		}
	}
}

// sortedLater reports whether the function body passes the appended
// slice to a sort.*/slices.* call — the canonical collect-then-sort
// idiom that makes the append order irrelevant.
func sortedLater(pass *Pass, funcBody *ast.BlockStmt, lhs ast.Expr) bool {
	if funcBody == nil {
		return false
	}
	obj, path := rootObject(pass.TypesInfo, lhs)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if aobj, apath := rootObject(pass.TypesInfo, arg); aobj == obj && apath == path {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isCommType reports whether t is (a pointer to) repro/internal/mpi.Comm
// — or any package's mpi.Comm, so fixtures exercise the rule too.
func isCommType(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return named.Obj().Name() == "Comm" && (p == "mpi" || strings.HasSuffix(p, "/mpi"))
}

func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func isIntegerExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

func exprMentionsLoopVars(pass *Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	loopObjs := make(map[types.Object]bool)
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				loopObjs[obj] = true
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				loopObjs[obj] = true
			}
		}
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && loopObjs[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// rootObject resolves an lvalue-ish expression to its base object plus a
// field path ("ci.ids" → object ci, path "ci.ids"), so two mentions of
// the same storage compare equal.
func rootObject(info *types.Info, e ast.Expr) (types.Object, string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o, e.Name
		}
		return info.Defs[e], e.Name
	case *ast.SelectorExpr:
		obj, path := rootObject(info, e.X)
		if obj == nil {
			return nil, ""
		}
		return obj, path + "." + e.Sel.Name
	case *ast.IndexExpr:
		return rootObject(info, e.X)
	case *ast.StarExpr:
		return rootObject(info, e.X)
	case *ast.SliceExpr:
		return rootObject(info, e.X)
	}
	return nil, ""
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	}
	return "expression"
}
