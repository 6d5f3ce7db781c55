package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
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

// wallclockExemptFiles is the deadlock watchdog: the only internal code
// with a legitimate claim on real time. It fires when simulated ranks
// stop making progress — a property of the host process, not of virtual
// time — and it charges no virtual time (PR 6 pinned that with the
// DeadlockError dump tests). Watchdog code elsewhere (the p2p rendezvous
// timers) carries per-site //vet:allow marks instead, so each new use of
// real time is an explicit, reasoned decision.
var wallclockExemptFiles = map[string]bool{
	"internal/mpi/mailbox.go": true,
	"internal/mpi/sync.go":    true,
}

// Wallclock reports reads of the wall clock in internal packages.
// Virtual-time determinism (ROADMAP "bitwise identical trajectories",
// pinned dynamically by internal/pipelinetest) dies silently if a stage
// charges real durations: the numbers still look plausible, they just
// stop replaying. Tests are never loaded, so they are exempt.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "flag time.Now/Since/Sleep (and friends) in internal packages: virtual time must come " +
		"from the simulated clock; only the mpi deadlock watchdog may read real time",
	Scope: func(relDir string) bool {
		return relDir == "internal" || strings.HasPrefix(relDir, "internal/")
	},
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	for _, f := range pass.Files {
		file := filepath.ToSlash(pass.Fset.Position(f.Pos()).Filename)
		exempt := false
		for name := range wallclockExemptFiles {
			if strings.HasSuffix(file, "/"+name) || file == name {
				exempt = true
				break
			}
		}
		if exempt {
			continue
		}
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
				pass.Reportf(call.Pos(), "time.%s reads the wall clock: virtual time must come from the simulated clock (mpi.Comm.Now/Compute); only the mpi deadlock watchdog may read real time", obj.Name())
			}
			return true
		})
	}
	return nil
}
