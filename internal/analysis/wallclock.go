package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallclockFuncs are the package-time entry points that observe or wait
// on the wall clock. Pure value constructors (time.Duration arithmetic,
// time.Unix, Parse, …) are fine — the invariant is about *reading* real
// time, because every duration the pipeline reports must come from the
// simulated clock (mpi.Comm.Now) or the trajectories stop being
// reproducible across hosts and runs.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Wallclock reports reads of the wall clock in internal packages.
// Virtual-time determinism (ROADMAP "bitwise identical trajectories",
// pinned dynamically by internal/pipelinetest) dies silently if a stage
// charges real durations: the numbers still look plausible, they just
// stop replaying. Tests are never loaded, so they are exempt. No internal
// code has a claim on real time: the mpi runtime detects a deadlock from
// its wait-for count, not from a deadline.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "flag time.Now/Since/Sleep (and friends) in internal packages: virtual time must come " +
		"from the simulated clock, and no internal code reads real time",
	Scope: func(relDir string) bool {
		return relDir == "internal" || strings.HasPrefix(relDir, "internal/")
	},
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if wallclockFuncs[obj.Name()] {
				pass.Reportf(call.Pos(), "time.%s reads the wall clock: virtual time must come from the simulated clock (mpi.Comm.Now/Charge)", obj.Name())
			}
			return true
		})
	}
	return nil
}
