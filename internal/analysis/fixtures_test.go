package analysis_test

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe matches a fixture line's expectation: a trailing
//
//	return err == io.EOF // want `compared with ==: use errors.Is`
//
// whose backquoted regexps must each match the message of one diagnostic
// reported on that line.
var wantRe = regexp.MustCompile("want((?:\\s+`[^`]*`)+)")
var wantArgRe = regexp.MustCompile("`[^`]*`")

// TestErrWrapFixture runs ErrWrap over testdata/src/errwrap, loaded with
// the module mounted so it type-checks like a real package: every seeded
// true positive must fire, and the sanctioned idioms must stay silent.
// Diagnostics with no matching want, and wants with no matching
// diagnostic, fail the test.
func TestErrWrapFixture(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "errwrap"))
	if err != nil {
		t.Fatal(err)
	}
	l.ExtraRoots = map[string]string{"errwrap": dir}
	p, err := l.Load("errwrap")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")))
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				for _, arg := range wantArgRe.FindAllString(m[1], -1) {
					pat := arg[1 : len(arg)-1]
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

	for _, d := range analysis.ErrWrap(p) {
		if filepath.Dir(filepath.Clean(d.Pos.Filename)) != dir {
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
