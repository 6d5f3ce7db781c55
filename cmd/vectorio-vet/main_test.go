package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the process into dir for one test; run() resolves its
// module root from the working directory exactly like the real binary.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

// TestExitCodes pins the driver's contract end to end: non-zero on a
// module with a seeded violation, zero on this repository itself. The
// second half doubles as the repo-wide clean gate from inside `go test`.
func TestExitCodes(t *testing.T) {
	var out, errOut strings.Builder

	badmod, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, badmod)
	if code := run([]string{"./..."}, &out, &errOut); code != 1 {
		t.Errorf("on badmod: exit %d, want 1 (stdout=%q stderr=%q)", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[wallclock]") {
		t.Errorf("badmod findings missing wallclock diagnostic: %q", out.String())
	}

	repoRoot := filepath.Dir(filepath.Dir(badmod)) // .../internal/analysis
	repoRoot = filepath.Dir(filepath.Dir(repoRoot))
	out.Reset()
	errOut.Reset()
	chdir(t, repoRoot)
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Errorf("on the repository: exit %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
}

// TestListMode keeps -list enumerating the full suite.
func TestListMode(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list: exit %d (%s)", code, errOut.String())
	}
	for _, name := range []string{"wallclock", "maporder", "errwrap"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestJSONMode pins the -json wire form: exit 1 on badmod, every stdout
// line a self-contained finding object with populated fields, in the
// same deterministic order as the plain output.
func TestJSONMode(t *testing.T) {
	var out, errOut strings.Builder

	badmod, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, badmod)
	if code := run([]string{"-json", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("-json on badmod: exit %d, want 1 (stderr=%q)", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("-json produced no findings on badmod")
	}
	var prev finding
	for i, line := range lines {
		var f finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line %d is not a JSON finding: %v\n%s", i+1, err, line)
		}
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("line %d has empty fields: %+v", i+1, f)
		}
		if i > 0 && (f.File < prev.File || (f.File == prev.File && f.Line < prev.Line)) {
			t.Errorf("findings out of (file, line) order at line %d: %+v after %+v", i+1, f, prev)
		}
		prev = f
	}
}

// TestBadPatternExit pins exit 2 for a check that cannot run at all,
// distinct from exit 1 for findings.
func TestBadPatternExit(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./no/such/dir"}, &out, &errOut); code != 2 {
		t.Errorf("bad pattern: exit %d, want 2", code)
	}
}
