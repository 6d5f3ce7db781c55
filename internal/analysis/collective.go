package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Collective reports collective communicator operations that a subset of
// ranks can skip. The SPMD contract behind every mpi.Comm collective
// (Barrier, Allgather, Alltoallv, WorldSync, ...) and every mpiio.File
// collective (ReadAtAll, SetView, ...) is that ALL ranks of the
// communicator reach the same calls in the same order; one rank taking a
// different path hangs the world (the runtime reports a DeadlockError
// once every rank is blocked or done) or, worse, pairs one rank's
// Allgather with another's Barrier.
// Three path shapes break the contract:
//
//   - a collective guarded by a Rank()-derived condition whose branches
//     do not execute the same collective sequence (a collective matched
//     call-for-call on every branch passes);
//   - a collective reachable after an early `return err` whose error is
//     NOT collectively settled — errors from communicator operations
//     abort the world (PR 6), so every rank returns together, but a
//     purely local error (parse, bounds check, allocator) returns on one
//     rank and leaves the rest blocked at the next collective;
//   - a collective inside a rank-dependent loop, or sharing a loop body
//     with such an early return (the return skips the next iteration's
//     collective on one rank only).
//
// Collective steps are found through the call graph: direct calls and
// calls to helpers whose summary reaches a collective. Function literals
// are skipped — sink and parser callbacks settle errors through the read
// agreement, not control flow. internal/mpi itself is out of scope: it
// implements the collectives out of rank-asymmetric sends by design.
var Collective = &Analyzer{
	Name: "collective",
	Doc: "flag collective Comm/mpiio calls skippable by a subset of ranks (rank-guarded, after a " +
		"non-collectively-settled early return, or in a rank-dependent loop): every rank must reach " +
		"the same collectives in the same order",
	Scope: func(relDir string) bool {
		return relDir == "internal/core" || relDir == "internal/mpiio" || relDir == "internal/spatial"
	},
	Run: runCollective,
}

func runCollective(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &collCtx{
				pass:     pass,
				g:        pass.Facts.Graph,
				info:     pass.TypesInfo,
				reported: make(map[token.Pos]bool),
			}
			if len(c.sitesIn(fd.Body)) == 0 {
				continue // no collective steps: nothing to desynchronize
			}
			c.rt = newRankTaint(pass.TypesInfo, c.g, fd)
			c.et = newErrTaint(pass.TypesInfo, c.g, fd, c.rt)
			c.walkStmts(fd.Body.List, nil)
		}
	}
	return nil
}

// A hazard is a point after which a subset of ranks may no longer be
// executing the function.
type hazard struct {
	kind string // "rank-guarded early return" | "non-collectively-settled early return"
	pos  token.Pos
}

// A collSite is one collective step: a direct collective call or a call
// into a helper that performs collectives.
type collSite struct {
	pos  token.Pos
	name string
}

type collCtx struct {
	pass     *Pass
	g        *CallGraph
	info     *types.Info
	rt       *rankTaint
	et       *errTaint
	reported map[token.Pos]bool
}

// flag reports a site once; the first classification wins.
func (c *collCtx) flag(site collSite, format string, args ...any) {
	if c.reported[site.pos] {
		return
	}
	c.reported[site.pos] = true
	c.pass.Reportf(site.pos, format, args...)
}

// flagAfter reports site against the nearest preceding hazard, if any.
func (c *collCtx) flagAfter(site collSite, hz []hazard) {
	if len(hz) == 0 {
		return
	}
	h := hz[len(hz)-1]
	c.flag(site, "%s is reachable after a %s at %s: ranks that returned early never arrive and the collective hangs the rest",
		site.name, h.kind, c.pass.Fset.Position(h.pos))
}

// siteOf classifies one call as a collective step. Communicator and File
// methods are steps only when directly collective (their internals are
// internal/mpi's concern); any other resolvable callee is a step when
// its summary reaches a collective.
func (c *collCtx) siteOf(call *ast.CallExpr) (collSite, bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := c.info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			if isCommType(selection.Recv()) {
				if commCollectives[sel.Sel.Name] {
					return collSite{pos: call.Pos(), name: "mpi.Comm." + sel.Sel.Name}, true
				}
				return collSite{}, false
			}
			if isMPIIOFileType(selection.Recv()) {
				if fileCollectives[sel.Sel.Name] {
					return collSite{pos: call.Pos(), name: "mpiio.File." + sel.Sel.Name}, true
				}
				return collSite{}, false
			}
		}
	}
	if fn := resolveCallee(c.g, c.info, call); fn != nil && c.g.Node(fn) != nil {
		if colls := c.g.Collectives(fn); len(colls) > 0 {
			return collSite{pos: call.Pos(), name: strings.Join(colls, ", ") + " via " + fn.Name()}, true
		}
	}
	return collSite{}, false
}

// sitesIn collects the collective steps under n in textual order,
// skipping function literals, spawned goroutines, and defers (defers run
// on every path and cannot desynchronize).
func (c *collCtx) sitesIn(n ast.Node) []collSite {
	var out []collSite
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if site, ok := c.siteOf(m); ok {
				out = append(out, site)
			}
		}
		return true
	})
	return out
}

// seqOf is the may-sequence of collective step names under a branch,
// the unit of the matched-on-every-branch rule.
func (c *collCtx) seqOf(stmts []ast.Stmt) []string {
	var out []string
	for _, s := range stmts {
		for _, site := range c.sitesIn(s) {
			out = append(out, site.name)
		}
	}
	return out
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// appendHz copies-then-appends so sibling branches never share backing
// arrays.
func appendHz(hz []hazard, h ...hazard) []hazard {
	out := make([]hazard, len(hz), len(hz)+len(h))
	copy(out, hz)
	return append(out, h...)
}

// walkStmts processes a statement list in order, threading the hazard
// set, and returns the set augmented with hazards the list created.
func (c *collCtx) walkStmts(stmts []ast.Stmt, hz []hazard) []hazard {
	for _, s := range stmts {
		hz = c.walkStmt(s, hz)
	}
	return hz
}

func (c *collCtx) walkStmt(s ast.Stmt, hz []hazard) []hazard {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.walkStmts(s.List, hz)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, hz)
	case *ast.IfStmt:
		return c.walkIf(s, hz)
	case *ast.SwitchStmt:
		return c.walkSwitch(s, hz)
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				hz = appendHz(hz, c.newHazards(clause.Body, hz)...)
			}
		}
		return hz
	case *ast.ForStmt:
		return c.walkFor(s, hz)
	case *ast.RangeStmt:
		return c.walkRange(s, hz)
	case *ast.DeferStmt, *ast.GoStmt:
		return hz
	default:
		for _, site := range c.sitesIn(s) {
			c.flagAfter(site, hz)
		}
		return hz
	}
}

// newHazards walks a nested statement list and returns only the hazards
// it added beyond base.
func (c *collCtx) newHazards(stmts []ast.Stmt, base []hazard) []hazard {
	after := c.walkStmts(stmts, base)
	return after[len(base):]
}

func (c *collCtx) walkIf(s *ast.IfStmt, hz []hazard) []hazard {
	if s.Init != nil {
		hz = c.walkStmt(s.Init, hz)
	}
	for _, site := range c.sitesIn(s.Cond) {
		c.flagAfter(site, hz)
	}

	// A settled error guard neutralizes the condition outright: when it
	// fires, the failure contract already has every rank erroring, so the
	// branch cannot split the world even if the error value also happens
	// to carry rank taint through the failing call's arguments.
	settled := c.et.settledErrGuard(s.Cond)
	rank := !settled && c.rt.rankish(s.Cond)
	unsettled := !settled && !rank && c.et.unsettledGuard(s.Cond)

	thenStmts := s.Body.List
	var elseStmts []ast.Stmt
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseStmts = e.List
	case *ast.IfStmt:
		elseStmts = []ast.Stmt{e}
	}

	if rank && !equalSeq(c.seqOf(thenStmts), c.seqOf(elseStmts)) {
		for _, stmts := range [][]ast.Stmt{thenStmts, elseStmts} {
			for _, s := range stmts {
				for _, site := range c.sitesIn(s) {
					c.flag(site, "%s is guarded by a rank-derived condition and not matched on every branch: a subset of ranks skips the collective and the world desynchronizes",
						site.name)
				}
			}
		}
	}

	// Branches run alternatively off the same incoming hazard set;
	// hazards born inside either may-path apply to everything after.
	out := appendHz(hz, c.newHazards(thenStmts, hz)...)
	out = append(out, c.newHazards(elseStmts, hz)...)

	// A return inside the guarded branch is a hazard unless it is itself
	// protected by a settled-error guard: on that path the failure
	// contract already has every rank erroring together.
	if rank || unsettled {
		kind := "rank-guarded early return"
		if !rank {
			kind = "non-collectively-settled early return"
		}
		if ret := hazardReturn(thenStmts, c.et); ret != nil {
			out = append(out, hazard{kind: kind, pos: ret.Pos()})
		} else if ret := hazardReturn(elseStmts, c.et); ret != nil {
			out = append(out, hazard{kind: kind, pos: ret.Pos()})
		}
	}
	return out
}

func (c *collCtx) walkSwitch(s *ast.SwitchStmt, hz []hazard) []hazard {
	if s.Init != nil {
		hz = c.walkStmt(s.Init, hz)
	}
	rank := s.Tag != nil && c.rt.rankish(s.Tag)
	unsettled := s.Tag != nil && !rank && c.et.unsettledGuard(s.Tag)
	hasDefault := false
	var clauses []*ast.CaseClause
	for _, cc := range s.Body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, clause)
		if clause.List == nil {
			hasDefault = true
		}
		for _, ce := range clause.List {
			if c.et.settledErrGuard(ce) {
				continue
			}
			if c.rt.rankish(ce) {
				rank = true
			} else if c.et.unsettledGuard(ce) {
				unsettled = true
			}
		}
	}

	if rank {
		mismatch := !hasDefault
		for i := 1; i < len(clauses) && !mismatch; i++ {
			mismatch = !equalSeq(c.seqOf(clauses[0].Body), c.seqOf(clauses[i].Body))
		}
		if mismatch {
			for _, clause := range clauses {
				for _, cs := range clause.Body {
					for _, site := range c.sitesIn(cs) {
						c.flag(site, "%s is guarded by a rank-derived condition and not matched on every branch: a subset of ranks skips the collective and the world desynchronizes",
							site.name)
					}
				}
			}
		}
	}

	out := appendHz(hz)
	for _, clause := range clauses {
		out = append(out, c.newHazards(clause.Body, hz)...)
		if rank || unsettled {
			ret := hazardReturn(clause.Body, c.et)
			if ret == nil {
				continue
			}
			kind := "rank-guarded early return"
			if !rank {
				kind = "non-collectively-settled early return"
			}
			out = append(out, hazard{kind: kind, pos: ret.Pos()})
		}
	}
	return out
}

// walkLoop implements the two loop rules shared by for and range: every
// collective inside a rank-dependent loop is flagged (ranks run
// different iteration counts), and a hazard born anywhere in a loop body
// flags the body's collectives wholesale — on the next iteration the
// early return precedes them regardless of textual order.
func (c *collCtx) walkLoop(body *ast.BlockStmt, rankLoop bool, hz []hazard) []hazard {
	if rankLoop {
		for _, site := range c.sitesIn(body) {
			c.flag(site, "%s runs inside a rank-dependent loop: ranks execute different iteration counts and desynchronize the collective schedule",
				site.name)
		}
	}
	inner := c.newHazards(body.List, hz)
	if len(inner) > 0 {
		h := inner[len(inner)-1]
		for _, site := range c.sitesIn(body) {
			c.flag(site, "%s shares a loop with a %s at %s: a rank that leaves the loop early skips the next iteration's collective",
				site.name, h.kind, c.pass.Fset.Position(h.pos))
		}
	}
	return appendHz(hz, inner...)
}

func (c *collCtx) walkFor(s *ast.ForStmt, hz []hazard) []hazard {
	if s.Init != nil {
		hz = c.walkStmt(s.Init, hz)
	}
	rankLoop := s.Cond != nil && c.rt.rankish(s.Cond)
	return c.walkLoop(s.Body, rankLoop, hz)
}

func (c *collCtx) walkRange(s *ast.RangeStmt, hz []hazard) []hazard {
	return c.walkLoop(s.Body, c.rt.rankish(s.X), hz)
}
