package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Path-condition-lite analysis: the collective analyzer reasons about
// which paths through a function body reach which calls, without building
// a real CFG. Its walkers (collective.go) recurse over statement
// structure; this file holds the condition classifiers they share:
//
//   - rankTaint: is an expression derived from Comm.Rank()? A branch on
//     one takes different arms on different ranks.
//   - errTaint: is an error value collectively settled? An early return
//     guarded by a settled error (one produced by a communicator
//     operation, whose failure contract makes every rank error) is safe
//     to take; one guarded by a purely local error strands the ranks
//     that did not take it at the next collective.
//
// Both are positional object taints over a single declared function:
// assignments are recorded in source order with their positions, and a
// mention is classified by the LAST assignment textually preceding it.
// That approximates dominance well for Go's `x, err := f(); if err !=
// nil` idiom — the error-reuse pattern that makes a flow-insensitive
// taint useless — while staying far cheaper than SSA. Loop back-edge
// flows (a value assigned at the bottom of a loop, read at the top) are
// the accepted blind spot.

// posVal is one recorded assignment: what the variable held from pos on.
type posVal struct {
	pos token.Pos
	val int
}

// lastBefore returns the value of the latest assignment strictly before
// pos, or def when none precedes it.
func lastBefore(entries []posVal, pos token.Pos, def int) int {
	val := def
	for _, e := range entries {
		if e.pos >= pos {
			break
		}
		val = e.val
	}
	return val
}

// rankTaint classifies expressions of one function as rank-derived.
type rankTaint struct {
	info *types.Info
	g    *CallGraph
	asg  map[types.Object][]posVal // 1 = rank-derived, 0 = clean
}

// newRankTaint records, for every local assignment in fd, whether its
// right-hand side is rank-derived at that point: a Comm.Rank() call, a
// call summarized ReturnsRankDerived, or a mention of an object whose
// last preceding assignment was rank-derived. One forward pass suffices
// because mentions only look backward.
func newRankTaint(info *types.Info, g *CallGraph, fd *ast.FuncDecl) *rankTaint {
	rt := &rankTaint{info: info, g: g, asg: make(map[types.Object][]posVal)}
	inspectNoFuncLit(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			rhs, ok := rhsFor(as, i)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := objectOf(rt.info, id)
			if obj == nil {
				continue
			}
			if obj.Type() != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
				// Error values never carry rank taint: `err :=
				// f(rankDerived)` makes err's VALUE rank-dependent, but
				// settlement (errTaint), not rank provenance, decides
				// whether branching on it can split the world.
				continue
			}
			val := 0
			if rt.rankish(rhs) {
				val = 1
			}
			if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
				// Compound update (+=, |=): the old value persists.
				if lastBefore(rt.asg[obj], as.Pos(), 0) == 1 {
					val = 1
				}
			}
			rt.asg[obj] = append(rt.asg[obj], posVal{pos: as.Pos(), val: val})
		}
		return true
	})
	return rt
}

// rankish reports whether e mentions the rank at e's own position: a
// Comm.Rank() call, an object rank-derived here, or a call to a function
// whose return is rank-derived.
func (rt *rankTaint) rankish(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := rt.info.Uses[n]; obj != nil && lastBefore(rt.asg[obj], n.Pos(), 0) == 1 {
				found = true
			}
		case *ast.CallExpr:
			if isCommMethodCall(rt.info, n, "Rank") {
				found = true
			} else if fn := staticFunc(rt.info, n); fn != nil && rt.g.ReturnsRankDerived(fn) {
				found = true
			}
		}
		return !found
	})
	return found
}

const (
	errUnassigned = 0 // parameters, receiver state: conservatively unsettled
	errSettled    = 1
	errUnsettled  = 2
)

// errTaint classifies error values of one function as unsettled (the
// governing assignment came from a source without the collective failure
// contract) or settled (it traces to a communicator operation).
type errTaint struct {
	info *types.Info
	g    *CallGraph
	asg  map[types.Object][]posVal
	// lits maps local variables holding a function literal (`sendOwn :=
	// func() error {...}`) to that literal, so calls through them can be
	// classified by the literal's own returns instead of defaulting to
	// "unresolved, hence unsettled".
	lits     map[types.Object]*ast.FuncLit
	visiting map[*ast.FuncLit]bool
	// rt, when non-nil, lets //vet:uniform-marked callees be trusted
	// only when their arguments are rank-uniform too (a deterministic
	// function of rank-divergent inputs still fails divergently).
	rt *rankTaint
}

func newErrTaint(info *types.Info, g *CallGraph, fd *ast.FuncDecl, rt *rankTaint) *errTaint {
	et := &errTaint{
		info:     info,
		g:        g,
		asg:      make(map[types.Object][]posVal),
		lits:     make(map[types.Object]*ast.FuncLit),
		visiting: make(map[*ast.FuncLit]bool),
		rt:       rt,
	}
	record := func(lhs ast.Expr, pos token.Pos, st int) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if obj := objectOf(et.info, id); obj != nil {
			et.asg[obj] = append(et.asg[obj], posVal{pos: pos, val: st})
		}
	}
	recordLit := func(lhs, rhs ast.Expr) {
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			return
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := objectOf(et.info, id); obj != nil {
				et.lits[obj] = lit
			}
		}
	}
	inspectNoFuncLit(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if rhs, ok := rhsFor(n, i); ok {
					record(lhs, n.Pos(), et.exprStatus(rhs))
					recordLit(lhs, rhs)
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						record(name, vs.Pos(), et.exprStatus(vs.Values[i]))
					} else if len(vs.Values) == 1 {
						record(name, vs.Pos(), et.exprStatus(vs.Values[0]))
					}
				}
			}
		}
		return true
	})
	return et
}

// exprStatus classifies the provenance of a right-hand side: unsettled
// if it contains any unsettled call or any mention of an object whose
// governing assignment was unsettled; else settled (pure literals owe
// nothing).
func (et *errTaint) exprStatus(e ast.Expr) int {
	st := errSettled
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			// Only error-typed mentions propagate provenance (`err2 :=
			// err`, errors.Join): settlement is a property of the
			// error-producing operation, so a non-error argument with an
			// unsettled history (`ReadStream(c, f, ..., ex.Add)` after `ex,
			// err := pt.Stream(c)`) must not poison the call's own error.
			if obj := et.info.Uses[n]; obj != nil && isErrorType(et.info, n) {
				if entries, ok := et.asg[obj]; ok {
					if lastBefore(entries, n.Pos(), errSettled) == errUnsettled {
						st = errUnsettled
					}
				}
			}
		case *ast.CallExpr:
			if !et.callSettles(n) {
				st = errUnsettled
			}
		}
		return st != errUnsettled
	})
	return st
}

// callSettles reports whether errors originating from this call are
// collectively settled: communicator operations (the PR 6 failure
// contract aborts the world, so every rank errors), mpiio.File methods
// (which settle in-band through WorldSync agreement), and helpers
// summarized as reaching one. Conversions and builtins produce no errors
// and are neutral. Everything else — local helpers, the standard
// library, unresolved dynamic calls — is a purely local error source.
func (et *errTaint) callSettles(call *ast.CallExpr) bool {
	if tv, ok := et.info.Types[call.Fun]; ok && tv.IsType() {
		return true // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := et.info.Uses[id].(*types.Builtin); isB {
			return true
		}
		if obj := et.info.Uses[id]; obj != nil {
			if lit := et.lits[obj]; lit != nil {
				return et.litSettles(lit)
			}
		}
	}
	if !methodReturnsError(et.info, call) {
		// A call that cannot produce an error at all (accessors like
		// pf.Name(), pure computation) can never be an error's provenance:
		// neutral, like a builtin.
		return true
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := et.info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			if isCommType(selection.Recv()) {
				return commCollectives[sel.Sel.Name] || commFallible[sel.Sel.Name]
			}
			if isMPIIOFileType(selection.Recv()) {
				return true
			}
		}
	}
	if fn := staticFunc(et.info, call); fn != nil {
		// A //vet:uniform-marked callee's error is a deterministic function
		// of its arguments: when the arguments are rank-uniform, every rank
		// computes the same error and an early return on it is collective in
		// effect. Rank-tainted arguments void the guarantee.
		if et.g.UniformErrors(fn) && !et.rankishArgs(call) {
			return true
		}
		if et.g.Node(fn) != nil {
			return et.g.SettlesErrors(fn)
		}
	}
	return false
}

// rankishArgs reports whether any argument (or the method receiver
// expression) of call is rank-derived. Without a rank taint in hand the
// check degrades to trusting the mark.
func (et *errTaint) rankishArgs(call *ast.CallExpr) bool {
	if et.rt == nil {
		return false
	}
	for _, arg := range call.Args {
		if et.rt.rankish(arg) {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if et.rt.rankish(sel.X) {
			return true
		}
	}
	return false
}

// litSettles classifies a call through a local function literal by the
// provenance of the literal's own error returns: settled when every
// error-typed return expression is settled. Assignments inside the
// literal are not position-tracked (the taints stop at literal
// boundaries), so a literal that launders a local error through an
// intermediate variable is misclassified settled — acceptable for the
// tiny send/recv closures this resolves (the sendOwn idiom).
func (et *errTaint) litSettles(lit *ast.FuncLit) bool {
	if et.visiting[lit] {
		return false
	}
	et.visiting[lit] = true
	defer delete(et.visiting, lit)
	settled := true
	inspectNoFuncLit(lit.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if isErrorType(et.info, res) && et.exprStatus(res) == errUnsettled {
				settled = false
			}
		}
		return settled
	})
	return settled
}

// methodReturnsError reports whether the call can produce an error at
// all; infallible accessors (Rank, Now, Config) are neutral sources.
func methodReturnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(tv.Type, errType)
}

// unsettledGuard reports whether cond guards on an unsettled error: it
// mentions an error-typed expression whose governing provenance is not a
// communicator operation. Error-typed calls inline in the condition are
// classified directly.
func (et *errTaint) unsettledGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok || !isErrorType(et.info, e) {
			return true
		}
		switch e := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if !et.callSettles(e) {
				found = true
			}
			return false // provenance settled: don't reclassify its parts
		case *ast.Ident:
			if e.Name == "nil" {
				return false
			}
			if obj := et.info.Uses[e]; obj != nil {
				if lastBefore(et.asg[obj], e.Pos(), errUnassigned) != errSettled {
					found = true
				}
			}
		default:
			if obj, _ := rootObject(et.info, e); obj != nil {
				if lastBefore(et.asg[obj], e.Pos(), errUnassigned) != errSettled {
					found = true
				}
			} else {
				found = true // unrooted error expression: assume local
			}
		}
		return !found
	})
	return found
}

// settledErrGuard reports whether cond is an error guard whose
// provenance IS collectively settled — the exempting shape for returns
// inside rank-guarded branches.
func (et *errTaint) settledErrGuard(cond ast.Expr) bool {
	return condMentionsError(et.info, cond) && !et.unsettledGuard(cond)
}

// condMentionsError reports whether the condition involves an
// error-typed value — the shape of an error-path guard.
func condMentionsError(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok && isErrorType(info, e) {
			found = true
		}
		return !found
	})
	return found
}

// isErrorType reports whether e's static type is the error interface.
func isErrorType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

// hazardReturn returns the first return in the statement list that is
// not protected by a settled-error guard. A return under `if err != nil`
// with a communicator-settled err is exempt: when it fires, the failure
// contract has already made every rank error, so nobody is stranded.
func hazardReturn(stmts []ast.Stmt, et *errTaint) *ast.ReturnStmt {
	var found *ast.ReturnStmt
	var scan func(s ast.Stmt, protected bool)
	scanList := func(list []ast.Stmt, protected bool) {
		for _, s := range list {
			if found != nil {
				return
			}
			scan(s, protected)
		}
	}
	scan = func(s ast.Stmt, protected bool) {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			if !protected {
				found = s
			}
		case *ast.BlockStmt:
			scanList(s.List, protected)
		case *ast.LabeledStmt:
			scan(s.Stmt, protected)
		case *ast.IfStmt:
			prot := protected || et.settledErrGuard(s.Cond)
			scanList(s.Body.List, prot)
			if s.Else != nil {
				scan(s.Else, protected)
			}
		case *ast.ForStmt:
			scanList(s.Body.List, protected)
		case *ast.RangeStmt:
			scanList(s.Body.List, protected)
		case *ast.SwitchStmt:
			for _, cc := range s.Body.List {
				if clause, ok := cc.(*ast.CaseClause); ok {
					scanList(clause.Body, protected)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range s.Body.List {
				if clause, ok := cc.(*ast.CaseClause); ok {
					scanList(clause.Body, protected)
				}
			}
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				if clause, ok := cc.(*ast.CommClause); ok {
					scanList(clause.Body, protected)
				}
			}
		}
	}
	scanList(stmts, false)
	return found
}

// objectOf resolves an identifier to its object, definition or use.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// rhsFor pairs the i-th LHS of an assignment with its RHS expression,
// handling both n:=n and the single-RHS (call/comma-ok) forms.
func rhsFor(as *ast.AssignStmt, i int) (ast.Expr, bool) {
	if len(as.Rhs) == len(as.Lhs) {
		return as.Rhs[i], true
	}
	if len(as.Rhs) == 1 {
		return as.Rhs[0], true
	}
	return nil, false
}
