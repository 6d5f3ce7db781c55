package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CommSafety reports mpi.Comm method calls reachable from a goroutine
// spawned in internal/core. The simulated communicator is the rank's
// program counter: every send, receive, and Compute charge advances the
// rank's virtual clock in program order. A worker goroutine touching the
// communicator races the rank's own trajectory — the virtual clock stops
// being a deterministic function of the input and the -race chaos jobs
// only catch it when the schedule cooperates. internal/core starts no
// goroutine today; should one return, its work must accumulate cost
// locally and charge it at a fixed program point on the rank goroutine.
//
// The reachability walk runs over the whole-program call graph
// (Facts.Graph): static calls in any loaded package plus CHA-resolved
// interface calls with a unique implementation. Communicator calls
// inside this package are reported at the call site; a reach that
// crosses into another package is reported once at the in-package call
// that leaves it, quoting the communicator operation it arrives at.
// Calls through function values or many-implementation interfaces are
// still not chased — sinks and Parser implementations are the escape
// points, and their contracts ("must not touch the communicator") are
// documented at the interface.
var CommSafety = &Analyzer{
	Name: "commsafety",
	Doc: "flag mpi.Comm method calls reachable from goroutines spawned in internal/core: only the " +
		"rank goroutine may advance the virtual clock or communicate",
	Scope: func(relDir string) bool { return relDir == "internal/core" },
	Run:   runCommSafety,
}

func runCommSafety(pass *Pass) error {
	g := pass.Facts.Graph
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			seen := make(map[*types.Func]bool)
			// Only the callee's body runs on the new goroutine — the
			// arguments are evaluated synchronously by the spawner.
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				scanSpawnedBody(pass, g, fun.Body, gs, seen)
			default:
				if fn := resolveCallee(g, pass.TypesInfo, gs.Call); fn != nil {
					walkSpawned(pass, g, fn, gs, gs.Call.Pos(), seen)
				}
			}
			return true
		})
	}
	return nil
}

// scanSpawnedBody scans code that runs on a spawned goroutine within the
// analyzed package, reporting direct communicator calls and following
// every resolvable call edge.
func scanSpawnedBody(pass *Pass, g *CallGraph, body ast.Node, spawn *ast.GoStmt, seen map[*types.Func]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if selection, ok := pass.TypesInfo.Selections[sel]; ok &&
				selection.Kind() == types.MethodVal && isCommType(selection.Recv()) {
				pass.Reportf(call.Pos(), "mpi.Comm.%s reachable from the goroutine spawned at %s: only the rank goroutine may touch the communicator; accumulate cost and charge it at a fixed program point instead",
					sel.Sel.Name, pass.Fset.Position(spawn.Pos()))
				return true
			}
		}
		if fn := resolveCallee(g, pass.TypesInfo, call); fn != nil {
			walkSpawned(pass, g, fn, spawn, call.Pos(), seen)
		}
		return true
	})
}

// walkSpawned continues the goroutine reachability walk into fn. Inside
// the analyzed package, communicator calls report at their own site and
// the walk recurses; the first hop into another package reports via that
// package's summary at the crossing call, which keeps diagnostics inside
// the package being vetted.
func walkSpawned(pass *Pass, g *CallGraph, fn *types.Func, spawn *ast.GoStmt, site token.Pos, seen map[*types.Func]bool) {
	if seen[fn] {
		return
	}
	seen[fn] = true
	node := g.Node(fn)
	if node == nil {
		return // standard library or unloadable: assumed comm-free
	}
	if node.Pkg.Types != pass.Pkg {
		if via := g.CommVia(fn); via != "" {
			pass.Reportf(site, "%s reachable from the goroutine spawned at %s via %s.%s: only the rank goroutine may touch the communicator; accumulate cost and charge it at a fixed program point instead",
				via, pass.Fset.Position(spawn.Pos()), node.Pkg.Types.Name(), fn.Name())
		}
		return
	}
	for _, cc := range node.CommCalls {
		pass.Reportf(cc.Call.Pos(), "%s reachable from the goroutine spawned at %s: only the rank goroutine may touch the communicator; accumulate cost and charge it at a fixed program point instead",
			cc.Name(), pass.Fset.Position(spawn.Pos()))
	}
	for _, e := range node.Calls {
		walkSpawned(pass, g, e.Callee, spawn, e.Site.Pos(), seen)
	}
	// Code inside non-spawned literals of fn runs on this goroutine too
	// and was attributed to the node by the graph builder; spawns nested
	// inside fn start further goroutines, whose bodies the builder
	// recorded — still off the rank goroutine, so keep walking them.
	for _, sp := range node.Spawns {
		if sp.Body != nil {
			scanSpawnedBody(pass, g, sp.Body, spawn, seen)
		} else if sp.Callee != nil {
			walkSpawned(pass, g, sp.Callee, spawn, sp.Stmt.Call.Pos(), seen)
		}
	}
}

// resolveCallee resolves a call to a declared function: statically, or
// through the graph's unique-implementation CHA step for interface
// methods.
func resolveCallee(g *CallGraph, info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := staticFunc(info, call); fn != nil {
		return fn
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			if iface, ok := selection.Recv().Underlying().(*types.Interface); ok && g != nil {
				return g.uniqueImpl(iface, sel.Sel.Name)
			}
		}
	}
	return nil
}
