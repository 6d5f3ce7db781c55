package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked, non-test compilation unit.
type Package struct {
	// Path is the import path ("repro/internal/core", or a fixture path
	// like "errwrap" under an extra root).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports resolve against the module
// directory, fixture imports against ExtraRoots, and everything else
// against GOROOT source via go/importer's "source" compiler, so no
// export data, network, or external tooling is needed. Test files
// (*_test.go) are never loaded — the checks exempt tests.
type Loader struct {
	ModuleDir  string
	ModulePath string
	// ExtraRoots maps an import path prefix to a directory holding it,
	// used by the fixture test to mount testdata/src/errwrap.
	ExtraRoots map[string]string

	Fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader builds a loader for the module rooted at moduleDir (the
// directory holding go.mod).
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: module root %s: %w", abs, err)
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  abs,
		ModulePath: string(m[1]),
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// Load loads the package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, ok := l.resolve(path)
	if !ok {
		return nil, fmt.Errorf("analysis: cannot resolve import %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	p, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// resolve maps an import path to a directory. Module paths win, then
// extra roots; anything else is GOROOT's problem.
func (l *Loader) resolve(path string) (dir string, ok bool) {
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rel, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), true
	}
	// Sorted prefixes: map order must not pick the winner when roots
	// overlap.
	prefixes := make([]string, 0, len(l.ExtraRoots))
	for prefix := range l.ExtraRoots {
		prefixes = append(prefixes, prefix)
	}
	sort.Strings(prefixes)
	for _, prefix := range prefixes {
		root := l.ExtraRoots[prefix]
		if path == prefix {
			return root, true
		}
		if rel, ok := strings.CutPrefix(path, prefix+"/"); ok {
			return filepath.Join(root, filepath.FromSlash(rel)), true
		}
	}
	return "", false
}

func (l *Loader) loadDir(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: package %q: %w", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}

	// ErrWrap reads expression types and identifier uses, nothing else.
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if p == "unsafe" {
				return types.Unsafe, nil
			}
			if _, ok := l.resolve(p); ok {
				pkg, err := l.Load(p)
				if err != nil {
					return nil, err
				}
				return pkg.Types, nil
			}
			return l.std.Import(p)
		}),
		Sizes: types.SizesFor("gc", "amd64"),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
