package analysis_test

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestRepoIsClean is the repository's static gate: no non-test file under
// internal/ imports time, and errwrap finds nothing in the packages whose
// errors cross the failure contract. It also pins that the walk reached
// those packages, so a walk or loader regression cannot pass everything by
// checking nothing.
func TestRepoIsClean(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, checked, err := analysis.CheckModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	want := []string{"repro/internal/core", "repro/internal/mpiio", "repro/internal/spatial"}
	if !slices.Equal(checked, want) {
		t.Errorf("errwrap checked %v, want %v", checked, want)
	}
}

// TestBadModuleFails keeps the driver honest from the other side: a fixture
// module with a seeded violation must produce a finding. Without it, a walk
// or parse regression could make CheckModule report nothing anywhere and
// TestRepoIsClean would keep passing.
func TestBadModuleFails(t *testing.T) {
	badmod, err := filepath.Abs(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	diags, checked, err := analysis.CheckModule(badmod)
	if err != nil {
		t.Fatal(err)
	}
	if len(checked) != 0 {
		t.Errorf("errwrap checked %v in badmod, which has none of its packages", checked)
	}
	found := false
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, filepath.Join("internal", "clock", "clock.go")) && strings.Contains(d.Message, `imports "time"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an imports \"time\" finding in badmod's clock.go, got: %v", diags)
	}
}
