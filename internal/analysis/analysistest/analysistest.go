// Package analysistest runs one analyzer over a fixture package and
// checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the repository's own
// mini framework.
//
// A fixture line expecting a diagnostic carries a trailing comment:
//
//	for k := range m { // want `map iteration order`
//
// The backquoted string is a regexp that must match the message of a
// diagnostic reported on that line; several want clauses on one line
// expect several diagnostics. Double quotes work too. Diagnostics with
// no matching want, and wants with no matching diagnostic, fail the
// test. Fixture packages live under testdata/src/<name> and are loaded
// with the enclosing module mounted, so fixtures may import real
// packages (repro/internal/mpi, repro/internal/arena) to exercise
// type-sensitive rules.
package analysistest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRe = regexp.MustCompile("want((?:\\s+(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"))+)")
var wantArgRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads the fixture package pkg from testdata/src under dir (the
// analyzer's package directory, usually via analysistest.TestData()) and
// checks a's diagnostics against the fixture's want comments. Scope
// filters are bypassed: fixtures exercise the rule wherever they live.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	srcRoot := filepath.Join(testdata, "src")
	moduleRoot, err := analysis.FindModuleRoot(testdata)
	if err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	l.ExtraRoots = map[string]string{pkg: filepath.Join(srcRoot, pkg)}
	p, err := l.Load(pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{p}, []*analysis.Analyzer{a},
		analysis.RunOptions{ForceScope: true})
	if err != nil {
		t.Fatal(err)
	}

	wants := make(map[key][]*regexp.Regexp)
	for _, f := range p.Files {
		collectWants(t, p, f, wants)
	}

	fixtureDir := filepath.Clean(filepath.Join(srcRoot, pkg))
	for _, d := range diags {
		if filepath.Dir(filepath.Clean(d.Pos.Filename)) != fixtureDir {
			t.Errorf("diagnostic outside fixture package: %s", d)
			continue
		}
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		idx := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(wants[k][:idx], wants[k][idx+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// TestData returns the caller package's testdata directory.
func TestData(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func collectWants(t *testing.T, p *analysis.Package, f *ast.File, wants map[key][]*regexp.Regexp) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			m := wantRe.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			for _, arg := range wantArgRe.FindAllString(m[1], -1) {
				pat := arg[1 : len(arg)-1]
				if arg[0] == '"' {
					pat = strings.ReplaceAll(pat, `\"`, `"`)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
				}
				k := key{filepath.Base(pos.Filename), pos.Line}
				wants[k] = append(wants[k], re)
			}
		}
	}
}

type key struct {
	file string
	line int
}
