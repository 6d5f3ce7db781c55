package analysis

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzers returns the full vectorio-vet suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Wallclock, MapOrder, ErrWrap}
}

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

// ExpandPatterns resolves go-tool-style package patterns ("./...",
// "./internal/core", "repro/internal/...") to module-relative package
// directories holding at least one non-test Go file. testdata trees and
// hidden directories are skipped, exactly as the go tool skips them.
func ExpandPatterns(moduleDir, modulePath string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(rel string) {
		rel = filepath.ToSlash(rel)
		if rel == "" {
			rel = "."
		}
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, modulePath+"/")
		if pat == modulePath {
			pat = "."
		}
		recursive := false
		if pat == "all" {
			pat, recursive = ".", true
		}
		if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		} else if pat == "..." {
			pat, recursive = ".", true
		}
		pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
		if pat == "" || pat == "." {
			pat = "."
		}
		root := filepath.Join(moduleDir, filepath.FromSlash(pat))
		if !recursive {
			if !hasGoFiles(root) {
				return nil, fmt.Errorf("analysis: no Go files in %s", pat)
			}
			add(pat)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				rel, err := filepath.Rel(moduleDir, p)
				if err != nil {
					return err
				}
				add(rel)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// CheckModule is the vectorio-vet driver core: expand patterns, load and
// type-check every matched package of the module rooted at moduleDir, run
// the analyzer suite, and return the surviving diagnostics. A non-nil
// error means the check itself could not run (unresolvable pattern, parse
// or type error); an empty diagnostic slice with a nil error is a clean
// bill.
func CheckModule(moduleDir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l, err := NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	rels, err := ExpandPatterns(l.ModuleDir, l.ModulePath, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, rel := range rels {
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + rel
		}
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return RunAnalyzers(pkgs, analyzers, RunOptions{})
}
