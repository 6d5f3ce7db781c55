package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ClockCharge reports off-clock cost that never reaches the virtual
// clock, or reaches it on only some paths. Code that batches its charges
// — the Exchanger's projection and serialization accumulators — adds
// costmodel-derived cost into plain variables and fields, and the rank
// goroutine charges the total with Comm.Compute at a fixed program point
// (FinishStream). An accumulator that is never charged silently
// deflates every reported virtual time; a charge skipped on one path
// makes virtual time depend on which path ran, which is exactly the
// nondeterminism the cost model exists to remove.
//
// An accumulator is any `x += <expr mentioning the costmodel package>`.
// For a local, some charge in the same function must mention it; for a
// field, some function in the package must charge it (directly, through
// a local copy, or by passing it to a helper summarized as charging the
// clock). Every charging function is then path-checked: each return must
// be preceded by the charge, except error paths — a return inside an
// error-guarded branch, or returning a freshly constructed error — and
// the `if acc > 0 { Compute(acc) }` guard counts as charged because the
// skipped path owes nothing. Loops are assumed to execute (the invariant
// targets early returns and branch asymmetry, not zero-trip loops), and
// a charge inside a defer covers every exit.
var ClockCharge = &Analyzer{
	Name: "clockcharge",
	Doc: "flag off-clock cost accumulators (x += costmodel...) that never reach a Comm.Compute " +
		"charge, and charging functions that skip the charge on a non-error path",
	Scope: func(relDir string) bool {
		return relDir == "internal/core" || relDir == "internal/mpiio" || relDir == "internal/spatial"
	},
	Run: runClockCharge,
}

// fieldKey identifies a struct-field accumulator across the package.
type fieldKey struct {
	typ   *types.TypeName
	field string
}

func runClockCharge(pass *Pass) error {
	c := &chargeCtx{pass: pass, g: pass.Facts.Graph, info: pass.TypesInfo}

	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}

	type localAcc struct {
		fd    *ast.FuncDecl
		obj   types.Object
		name  string
		sites []token.Pos
	}
	var locals []*localAcc
	localIdx := make(map[types.Object]*localAcc)
	fieldSites := make(map[fieldKey][]token.Pos)
	var fieldKeys []fieldKey

	for _, fd := range fns {
		fd := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ADD_ASSIGN || len(as.Lhs) != 1 {
				return true
			}
			if !mentionsCostmodel(c.info, as.Rhs[0]) {
				return true
			}
			lhs := ast.Unparen(as.Lhs[0])
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				lhs = ast.Unparen(ix.X)
			}
			switch lv := lhs.(type) {
			case *ast.SelectorExpr:
				if selection, ok := c.info.Selections[lv]; ok && selection.Kind() == types.FieldVal {
					if named, ok := derefNamed(selection.Recv()); ok {
						key := fieldKey{typ: named.Obj(), field: lv.Sel.Name}
						if _, seen := fieldSites[key]; !seen {
							fieldKeys = append(fieldKeys, key)
						}
						fieldSites[key] = append(fieldSites[key], as.Pos())
					}
				}
			case *ast.Ident:
				obj := objectOf(c.info, lv)
				if obj == nil || obj.Parent() == pass.Pkg.Scope() {
					return true // package-level accumulators are out of pattern
				}
				acc := localIdx[obj]
				if acc == nil {
					acc = &localAcc{fd: fd, obj: obj, name: lv.Name}
					localIdx[obj] = acc
					locals = append(locals, acc)
				}
				acc.sites = append(acc.sites, as.Pos())
			}
			return true
		})
	}

	// Deterministic processing order: locals by first site, fields by
	// (type, field) name.
	sort.Slice(locals, func(i, j int) bool { return locals[i].sites[0] < locals[j].sites[0] })
	sort.Slice(fieldKeys, func(i, j int) bool {
		a, b := fieldKeys[i], fieldKeys[j]
		if a.typ.Name() != b.typ.Name() {
			return a.typ.Name() < b.typ.Name()
		}
		return a.field < b.field
	})

	for _, acc := range locals {
		m := c.mentionMatcher(acc.fd, c.localRef(acc.obj))
		if !c.fnCharges(acc.fd, m) {
			for _, pos := range acc.sites {
				c.pass.Reportf(pos, "off-clock cost accumulated into %s is never charged to the virtual clock: reach a Comm.Compute(%s) at a fixed point in %s",
					acc.name, acc.name, acc.fd.Name.Name)
			}
			continue
		}
		c.mustReach(acc.fd, m, acc.name)
	}

	for _, key := range fieldKeys {
		display := key.typ.Name() + "." + key.field
		var chargers []*ast.FuncDecl
		for _, fd := range fns {
			if c.fnCharges(fd, c.mentionMatcher(fd, c.fieldRef(key))) {
				chargers = append(chargers, fd)
			}
		}
		if len(chargers) == 0 {
			for _, pos := range fieldSites[key] {
				c.pass.Reportf(pos, "off-clock cost accumulated into %s is never charged to the virtual clock: no function in the package reaches a Comm.Compute mentioning it",
					display)
			}
			continue
		}
		for _, fd := range chargers {
			c.mustReach(fd, c.mentionMatcher(fd, c.fieldRef(key)), display)
		}
	}
	return nil
}

type chargeCtx struct {
	pass *Pass
	g    *CallGraph
	info *types.Info
	// currentFn is the charger being path-checked, for message context.
	currentFn *ast.FuncDecl
	// reported dedups path violations per return site: one message per
	// site, first accumulator (in deterministic order) wins.
	reported map[token.Pos]bool
}

// localRef matches a direct use of the local accumulator object.
func (c *chargeCtx) localRef(obj types.Object) func(ast.Expr) bool {
	return func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && objectOf(c.info, id) == obj
	}
}

// fieldRef matches a selector of the accumulator field on its type.
func (c *chargeCtx) fieldRef(key fieldKey) func(ast.Expr) bool {
	return func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != key.field {
			return false
		}
		selection, ok := c.info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return false
		}
		named, ok := derefNamed(selection.Recv())
		return ok && named.Obj() == key.typ
	}
}

// mentionMatcher extends a base matcher with one level of local taint:
// a local assigned from an expression mentioning the accumulator (the
// `total := ex.serCost[ph]` copy idiom) mentions it too.
func (c *chargeCtx) mentionMatcher(fd *ast.FuncDecl, base func(ast.Expr) bool) func(ast.Expr) bool {
	tainted := make(map[types.Object]bool)
	contains := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if sub, ok := n.(ast.Expr); ok {
				if base(sub) {
					found = true
				} else if id, ok := sub.(*ast.Ident); ok {
					if obj := objectOf(c.info, id); obj != nil && tainted[obj] {
						found = true
					}
				}
			}
			return !found
		})
		return found
	}
	for sweep := 0; sweep < 2; sweep++ {
		changed := false
		inspectNoFuncLit(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				rhs, ok := rhsFor(as, i)
				if !ok || !contains(rhs) {
					continue
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := objectOf(c.info, id); obj != nil && !tainted[obj] {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return contains
}

// chargeCall reports whether call charges the clock with the
// accumulator: Comm.Compute/AdvanceTo with an argument mentioning it, or
// a helper summarized as charging the clock fed the accumulator.
func (c *chargeCtx) chargeCall(call *ast.CallExpr, mentions func(ast.Expr) bool) bool {
	direct := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := c.info.Selections[sel]; ok && selection.Kind() == types.MethodVal &&
			isCommType(selection.Recv()) && (sel.Sel.Name == "Compute" || sel.Sel.Name == "AdvanceTo") {
			direct = true
		}
	}
	if !direct {
		fn := staticFunc(c.info, call)
		if fn == nil || !c.g.ChargesClock(fn) {
			return false
		}
	}
	for _, arg := range call.Args {
		if mentions(arg) {
			return true
		}
	}
	return false
}

// stmtCharges reports whether a charge of the accumulator occurs
// anywhere under s (function literals excluded).
func (c *chargeCtx) stmtCharges(s ast.Node, mentions func(ast.Expr) bool) bool {
	found := false
	inspectNoFuncLit(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && c.chargeCall(call, mentions) {
			found = true
		}
		return !found
	})
	return found
}

// fnCharges reports whether fd charges the accumulator anywhere.
func (c *chargeCtx) fnCharges(fd *ast.FuncDecl, mentions func(ast.Expr) bool) bool {
	return c.stmtCharges(fd.Body, mentions)
}

// reachState is the must-analysis lattice threaded through a charging
// function's statement structure.
type reachState struct {
	charged    bool
	terminated bool
}

// mustReach path-checks one charging function: every return not on an
// error path must be preceded by the charge.
func (c *chargeCtx) mustReach(fd *ast.FuncDecl, mentions func(ast.Expr) bool, accName string) {
	if c.reported == nil {
		c.reported = make(map[token.Pos]bool)
	}
	c.currentFn = fd
	st := reachState{}
	// A deferred charge runs at every exit regardless of path. The
	// deferred call (or literal body) is scanned with a full Inspect so
	// a charge inside `defer func() { ... }()` counts.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		found := false
		ast.Inspect(ds.Call, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && c.chargeCall(call, mentions) {
				found = true
			}
			return !found
		})
		if found {
			st.charged = true
		}
		return true
	})
	final := c.walkReach(fd.Body.List, st, false, mentions, accName)
	if !final.terminated && !final.charged {
		c.violation(fd.Body.Rbrace, fd, accName, "falls off the end")
	}
}

func (c *chargeCtx) violation(pos token.Pos, fd *ast.FuncDecl, accName, how string) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, "%s charges accumulated off-clock cost (%s) on some paths but %s without charging: charge at one fixed point on every non-error path",
		fd.Name.Name, accName, how)
}

// walkReach is the must-reach walker. errPath marks statements dominated
// by an error-typed guard, whose returns are exempt.
func (c *chargeCtx) walkReach(stmts []ast.Stmt, st reachState, errPath bool, mentions func(ast.Expr) bool, accName string) reachState {
	for _, s := range stmts {
		if st.terminated {
			return st
		}
		switch s := s.(type) {
		case *ast.ReturnStmt:
			if !st.charged && !errPath && !errorReturn(c.info, s) {
				c.violation(s.Pos(), c.currentFn, accName, "returns here")
			}
			st.terminated = true
		case *ast.BlockStmt:
			st = c.walkReach(s.List, st, errPath, mentions, accName)
		case *ast.LabeledStmt:
			st = c.walkReach([]ast.Stmt{s.Stmt}, st, errPath, mentions, accName)
		case *ast.IfStmt:
			st = c.reachIf(s, st, errPath, mentions, accName)
		case *ast.ForStmt:
			// Loops are assumed entered: the invariant targets early
			// returns and branch asymmetry, not zero-trip loops.
			body := c.walkReach(s.Body.List, st, errPath, mentions, accName)
			st.charged = st.charged || body.charged
		case *ast.RangeStmt:
			body := c.walkReach(s.Body.List, st, errPath, mentions, accName)
			st.charged = st.charged || body.charged
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			st = c.reachSwitch(s, st, errPath, mentions, accName)
		case *ast.DeferStmt, *ast.GoStmt:
			// defer handled up front; spawned code is another goroutine
		default:
			if c.stmtCharges(s, mentions) {
				st.charged = true
			}
		}
	}
	return st
}

func (c *chargeCtx) reachIf(s *ast.IfStmt, st reachState, errPath bool, mentions func(ast.Expr) bool, accName string) reachState {
	if s.Init != nil && c.stmtCharges(s.Init, mentions) {
		st.charged = true
	}
	condErr := errPath || condMentionsError(c.info, s.Cond)
	condAcc := mentions(s.Cond)

	thenSt := c.walkReach(s.Body.List, st, condErr, mentions, accName)
	elseSt := st
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseSt = c.walkReach(e.List, st, condErr, mentions, accName)
	case *ast.IfStmt:
		elseSt = c.walkReach([]ast.Stmt{e}, st, condErr, mentions, accName)
	}

	if condAcc {
		// The `if acc > 0 { charge }` idiom: the branch that skips the
		// charge owes nothing.
		st.charged = st.charged || thenSt.charged || elseSt.charged
		st.terminated = thenSt.terminated && elseSt.terminated
		return st
	}
	switch {
	case thenSt.terminated && elseSt.terminated:
		st.terminated = true
	case thenSt.terminated:
		st.charged = elseSt.charged
	case elseSt.terminated:
		st.charged = thenSt.charged
	default:
		st.charged = thenSt.charged && elseSt.charged
	}
	return st
}

func (c *chargeCtx) reachSwitch(s ast.Stmt, st reachState, errPath bool, mentions func(ast.Expr) bool, accName string) reachState {
	var body *ast.BlockStmt
	var tagErr bool
	switch s := s.(type) {
	case *ast.SwitchStmt:
		body = s.Body
		if s.Init != nil && c.stmtCharges(s.Init, mentions) {
			st.charged = true
		}
		tagErr = s.Tag != nil && condMentionsError(c.info, s.Tag)
	case *ast.TypeSwitchStmt:
		body = s.Body
	}
	hasDefault := false
	allCovered := true
	anyTerminatedAll := true
	for _, cc := range body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		clauseErr := tagErr || errPath
		for _, ce := range clause.List {
			if condMentionsError(c.info, ce) {
				clauseErr = true
			}
		}
		cs := c.walkReach(clause.Body, st, clauseErr, mentions, accName)
		if !cs.charged && !cs.terminated {
			allCovered = false
		}
		if !cs.terminated {
			anyTerminatedAll = false
		}
	}
	if hasDefault && allCovered {
		st.charged = true
	}
	if hasDefault && anyTerminatedAll && len(body.List) > 0 {
		st.terminated = true
	}
	return st
}

// errorReturn reports whether the return's results construct an error
// directly (a call whose static type is error — fmt.Errorf, errors.New,
// a wrapping helper). A bare identifier is not exempt: whether it is nil
// here is exactly what the path analysis cannot know.
func errorReturn(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && isErrorType(info, call) {
			return true
		}
	}
	return false
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

// mentionsCostmodel reports whether e references any identifier from the
// costmodel package — the signature of an off-clock cost expression.
func mentionsCostmodel(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		p := obj.Pkg().Path()
		if p == "costmodel" || strings.HasSuffix(p, "/costmodel") {
			found = true
		}
		return !found
	})
	return found
}
