package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer runs over its fixture package under testdata/src,
// asserting every seeded true positive fires, every sanctioned idiom
// stays silent, and the //vet:allow escape hatch suppresses exactly the
// annotated site (the want clauses live in the fixtures themselves).
func TestWallclockFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.Wallclock, "wallclock")
}

func TestMapOrderFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.MapOrder, "maporder")
}

func TestErrWrapFixture(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.ErrWrap, "errwrap")
}
