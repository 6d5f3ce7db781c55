package bench

import (
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pfs"
)

// quickCfg shrinks datasets for assertion-style claim tests.
var quickCfg = Config{Quick: true, ScaleMul: 8}

// cell parses a numeric table cell.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

// TestFig10NFSOrdering repeats the message-vs-overlap comparison on the
// NFS filesystem model — the paper reports reaching the same conclusion
// there: message-based wins.
func TestFig10NFSOrdering(t *testing.T) {
	spec := datagen.Lakes()
	scale := quickCfg.scale(spec.DefaultScale)
	const virtBlock = 32e6
	f, stats, err := datasetWithStats(spec, scale, pfs.BasicNFS(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var times [2]float64
	for i, strat := range []core.Strategy{core.MessageBased, core.Overlap} {
		bw, err := readBandwidth(2, f, virtBlock, core.Level1, strat, scale, stats.MaxRecordBytes)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		times[i] = float64(f.VirtualSize()) / bw
	}
	if times[0] >= times[1] {
		t.Errorf("message-based (%.2f s) should beat overlap (%.2f s) on NFS", times[0], times[1])
	}
}

// TestFig14PolygonsSlowerThanPoints asserts the Figure 14 claim on the
// regenerated table: All Objects (polygons) must be slower than All Nodes
// (points) at every process count, and both must improve with processes.
func TestFig14PolygonsSlowerThanPoints(t *testing.T) {
	tbl, err := Fig14(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		nodes := cell(t, tbl, i, 1)
		objects := cell(t, tbl, i, 2)
		if objects <= nodes {
			t.Errorf("row %d: All Objects (%.1f) should exceed All Nodes (%.1f)", i, objects, nodes)
		}
	}
	if len(tbl.Rows) >= 2 {
		if cell(t, tbl, len(tbl.Rows)-1, 1) >= cell(t, tbl, 0, 1) {
			t.Error("All Nodes time should fall as processes increase")
		}
	}
}

// TestFig15ContiguousBeatsNC asserts Figure 15's claims: contiguous is
// fastest, and non-contiguous time falls as the block size grows. It runs
// the full-sweep configuration (`vectorio-bench -exp fig15`, listed by
// `vectorio-bench -list`; see internal/bench/README.md): at very coarse
// scales the largest block size degenerates to a handful of active ranks
// and the ordering no longer holds.
func TestFig15ContiguousBeatsNC(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sweep configuration")
	}
	tbl, err := Fig15(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Rows per procs group: contiguous, then NC with increasing blocks.
	var contig float64
	var lastNC float64
	ncSeen := 0
	for i, row := range tbl.Rows {
		v := cell(t, tbl, i, 3)
		if row[1] == "contiguous" {
			contig = v
			lastNC = 0
			ncSeen = 0
			continue
		}
		if contig > 0 && v < contig*0.98 {
			t.Errorf("row %d: NC (%.2f) beat contiguous (%.2f)", i, v, contig)
		}
		if ncSeen > 0 && v > lastNC*1.02 {
			t.Errorf("row %d: NC time rose with larger blocks (%.2f -> %.2f)", i, lastNC, v)
		}
		lastNC = v
		ncSeen++
	}
}

// TestTable3WithinPaperBand asserts every dataset's modeled sequential
// time lands within 2x of the paper's measured column — the calibration
// contract of DESIGN.md.
func TestTable3WithinPaperBand(t *testing.T) {
	tbl, err := Table3(Config{}) // full six datasets at default scales
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("expected 6 datasets, got %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		measured := cell(t, tbl, i, 5)
		paper := cell(t, tbl, i, 6)
		ratio := measured / paper
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: measured %.1f s vs paper %.1f s (ratio %.2f, want within 2x)",
				tbl.Rows[i][1], measured, paper, ratio)
		}
	}
}

// TestFig5Declustering asserts the Figure 5 story: on a spatially sorted
// file, round-robin block assignment declusters (larger per-rank extents)
// and balances a hotspot workload better than contiguous partitioning.
func TestFig5Declustering(t *testing.T) {
	tbl, err := Fig5(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatalf("need contiguous + round-robin rows, got %d", len(tbl.Rows))
	}
	contigExtent := cell(t, tbl, 0, 2)
	contigImbalance := cell(t, tbl, 0, 3)
	rrExtent := cell(t, tbl, len(tbl.Rows)-1, 2)
	rrImbalance := cell(t, tbl, len(tbl.Rows)-1, 3)
	if rrExtent <= contigExtent {
		t.Errorf("round-robin extent (%.1f%%) should exceed contiguous (%.1f%%)", rrExtent, contigExtent)
	}
	if rrImbalance >= contigImbalance {
		t.Errorf("round-robin hotspot imbalance (%.2f) should beat contiguous (%.2f)", rrImbalance, contigImbalance)
	}
}

// TestAblationWindowPhases asserts the sliding window actually produces
// multiple phases and conserves the exchange outcome.
func TestAblationWindowPhases(t *testing.T) {
	tbl, err := AblationWindow(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	single := cell(t, tbl, 0, 1)
	windowed := cell(t, tbl, len(tbl.Rows)-1, 1)
	if single != 1 {
		t.Errorf("single-phase row reports %d phases", int(single))
	}
	if windowed <= 1 {
		t.Errorf("windowed row reports %d phases", int(windowed))
	}
}

// TestAblationDuplicatesOverReports asserts that disabling the reference
// point rule reports at least as many pairs (strictly more whenever some
// pair straddles a cell boundary).
func TestAblationDuplicatesOverReports(t *testing.T) {
	tbl, err := AblationDuplicates(Config{Quick: true, ScaleMul: 2})
	if err != nil {
		t.Fatal(err)
	}
	on := cell(t, tbl, 0, 1)
	off := cell(t, tbl, 1, 1)
	if off < on {
		t.Errorf("without duplicate avoidance %d pairs < %d with it", int(off), int(on))
	}
}
