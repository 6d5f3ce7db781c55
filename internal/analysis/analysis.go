// Package analysis holds the repository's static checks, the ones no
// tier-1 test can replace: errwrap (formatted errors wrap with %w and are
// matched with errors.Is/As in the packages whose errors cross the public
// failure contract) and the rule that no non-test file under internal/
// imports package time, so the simulated clock stays the only clock.
// CheckModule runs both over the module; TestRepoIsClean is the gate.
//
// Every other invariant is held at run time: the clock goldens and the
// internal/pipelinetest matrices pin each rank's clock and per-kind ledger
// bit for bit (so map-order nondeterminism and a dropped charge fail
// them), and internal/mpi matches collectives across ranks on every run.
// README.md records the mutations that show it.
//
// The checks are built on the standard library alone (go/ast, go/parser,
// go/types and the source importer), because this module adds no
// dependencies.
package analysis

import (
	"cmp"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A Diagnostic is one finding, addressed by real file position.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// errwrapScope lists the module-relative directories ErrWrap checks: the
// packages whose errors cross the public failure contract.
var errwrapScope = []string{"internal/core", "internal/mpiio", "internal/spatial"}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// CheckModule walks internal/ of the module rooted at moduleDir, as the go
// tool's ./... would (testdata, hidden and underscore-prefixed directories
// are skipped). Every non-test Go file that imports "time" is a finding:
// virtual time must come from the simulated clock (mpi.Comm.Now/Charge),
// and wall-clock performance is measured outside internal/, by benchmark/.
// Every package in errwrapScope is loaded, type-checked and run through
// ErrWrap. It returns the findings sorted by position and the import paths
// ErrWrap checked; a non-nil error means the check itself could not run.
func CheckModule(moduleDir string) (diags []Diagnostic, checked []string, err error) {
	l, err := NewLoader(moduleDir)
	if err != nil {
		return nil, nil, err
	}
	root := filepath.Join(l.ModuleDir, "internal")
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(l.ModuleDir, p)
			if err != nil {
				return err
			}
			if rel = filepath.ToSlash(rel); !slices.Contains(errwrapScope, rel) {
				return nil
			}
			pkg, err := l.Load(l.ModulePath + "/" + rel)
			if err != nil {
				return err
			}
			diags = append(diags, ErrWrap(pkg)...)
			checked = append(checked, pkg.Path)
			return nil
		}
		if !isSourceFile(name) {
			return nil
		}
		f, err := parser.ParseFile(l.Fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				diags = append(diags, Diagnostic{Pos: l.Fset.Position(imp.Pos()),
					Message: `imports "time": virtual time must come from the simulated clock (mpi.Comm.Now/Charge)`})
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Offset, b.Pos.Offset))
	})
	return diags, checked, nil
}

// isSourceFile reports whether a file name is a non-test Go source file the
// go tool would build.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}
