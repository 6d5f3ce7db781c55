// Package analysis is vectorio-vet: a suite of static analyzers that
// machine-check the determinism and safety invariants the pipeline's
// dynamic harnesses (internal/pipelinetest equivalence matrix, the chaos
// matrix) can only test after the fact. Every invariant here has already
// caused a bug class fixed in an earlier PR; the analyzers turn the
// conventions from folklore into CI failures.
//
// The suite is modeled on golang.org/x/tools/go/analysis — each checker
// is an *Analyzer with a Run(*Pass) function, a driver loads and
// type-checks packages and fans them out, and fixture tests assert
// diagnostics against // want comments — but it is built entirely on the
// standard library (go/ast, go/parser, go/types) because this module
// vendors nothing and adds no dependencies. The API shape is kept close
// enough to x/tools that porting to the real framework is mechanical.
//
// # Suppressing a diagnostic
//
// A legitimate violation site (a map iteration whose output is consumed
// as a set, say) is annotated in place:
//
//	//vet:allow maporder — order irrelevant: the consumer hashes the set
//	for k := range m {
//
// The comment names the analyzer and MUST carry a reason after a dash or
// colon; an allow without a reason is itself reported. The annotation
// suppresses diagnostics from that analyzer on its own line and the line
// directly below it (so it can sit above a long expression).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //vet:allow
	// comments. Lowercase, no spaces.
	Name string

	// Doc is the one-paragraph invariant statement shown by
	// `vectorio-vet -list`.
	Doc string

	// Scope reports whether the analyzer applies to a package, given its
	// module-relative directory ("internal/core"). A nil Scope means
	// every package. The analysistest runner bypasses Scope so fixture
	// packages exercise analyzers wherever they live.
	Scope func(relDir string) bool

	// Run performs the check and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// RelDir is the package directory relative to the module root, with
	// forward slashes ("internal/core").
	RelDir string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, addressed by real file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// allowRe matches the body of a //vet:allow comment: the analyzer name,
// then a dash/colon-separated reason. The reason is mandatory — an allow
// that does not say why is reported instead of honored.
var allowRe = regexp.MustCompile(`^vet:allow\s+([a-z]+)\b\s*(?:[—–:-]+\s*(\S.*))?$`)

type allowMark struct {
	analyzer string
	reason   string
	pos      token.Position
}

// collectAllows scans a file's comments for //vet:allow marks. Malformed
// marks (unknown syntax is left alone; a recognized mark missing its
// reason) are returned separately so the driver can report them.
func collectAllows(fset *token.FileSet, file *ast.File) (marks []allowMark, malformed []allowMark) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "vet:allow") {
				continue
			}
			// A nested `//` starts a comment-within-the-comment (fixture
			// want clauses, editor annotations): the mark ends there.
			if idx := strings.Index(text, "//"); idx >= 0 {
				text = strings.TrimSpace(text[:idx])
			}
			m := allowRe.FindStringSubmatch(text)
			pos := fset.Position(c.Pos())
			if m == nil || m[2] == "" {
				name := ""
				if m != nil {
					name = m[1]
				}
				malformed = append(malformed, allowMark{analyzer: name, pos: pos})
				continue
			}
			marks = append(marks, allowMark{analyzer: m[1], reason: m[2], pos: pos})
		}
	}
	return marks, malformed
}

// RunOptions configures a driver run.
type RunOptions struct {
	// ForceScope runs every analyzer on every package regardless of its
	// Scope. Used by the analysistest fixture runner, whose fixture
	// packages live outside the real invariant scopes.
	ForceScope bool
}

// RunAnalyzers applies analyzers to the loaded packages and returns the
// surviving diagnostics: findings not suppressed by a //vet:allow mark on
// their own line or the line above, plus one diagnostic per malformed
// mark. Diagnostics come back sorted by file position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, opt RunOptions) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		// Allow marks and their validity are per-file, independent of
		// which analyzers run on the package.
		type lineKey struct {
			file string
			line int
			name string
		}
		allowed := make(map[lineKey]bool)
		for _, f := range pkg.Files {
			marks, malformed := collectAllows(pkg.Fset, f)
			for _, m := range marks {
				allowed[lineKey{m.pos.Filename, m.pos.Line, m.analyzer}] = true
				allowed[lineKey{m.pos.Filename, m.pos.Line + 1, m.analyzer}] = true
			}
			for _, m := range malformed {
				msg := "malformed //vet:allow: missing analyzer name or reason (want `//vet:allow <name> — <reason>`)"
				if m.analyzer != "" {
					msg = fmt.Sprintf("//vet:allow %s is missing its reason (want `//vet:allow %s — <reason>`)", m.analyzer, m.analyzer)
				}
				diags = append(diags, Diagnostic{Analyzer: "vetallow", Pos: m.pos, Message: msg})
			}
		}
		for _, a := range analyzers {
			if !opt.ForceScope && a.Scope != nil && !a.Scope(pkg.RelDir) {
				continue
			}
			var found []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				RelDir:    pkg.RelDir,
				diags:     &found,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range found {
				if allowed[lineKey{d.Pos.Filename, d.Pos.Line, a.Name}] {
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	// Deterministic machine-readable order: byte offset within the file
	// is the position (line/column follow from it), then analyzer, then
	// message, and exact duplicates collapse to one finding.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Offset != b.Pos.Offset {
			return a.Pos.Offset < b.Pos.Offset
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

// derefNamed strips pointers and aliases down to a named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt, true
		default:
			return nil, false
		}
	}
}
