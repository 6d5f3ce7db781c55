package pipelinetest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/pfs"
	"repro/internal/wkb"
	"repro/internal/wkt"
)

// genGeoms draws a deterministic mixed-shape layer inside [0,100)^2.
func genGeoms(n int, seed int64) []geom.Geometry {
	r := rand.New(rand.NewSource(seed))
	out := make([]geom.Geometry, n)
	for i := range out {
		x, y := r.Float64()*90, r.Float64()*90
		switch r.Intn(3) {
		case 0:
			out[i] = geom.Point{X: x, Y: y}
		case 1:
			e := geom.Envelope{MinX: x, MinY: y, MaxX: x + 1 + r.Float64()*8, MaxY: y + 1 + r.Float64()*8}
			out[i] = e.ToPolygon()
		default:
			e := geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64()*3, MaxY: y + r.Float64()*3}
			out[i] = e.ToPolygon()
		}
	}
	return out
}

// genDegenerateGeoms draws the degenerate layer genGeoms never produces,
// inside [0,100)²: polygons with a hole, pairs of polygons sharing a
// border, and shapes whose vertices lie exactly on the lines of the 8×8
// grid over [0,100]² (multiples of 12.5). Every coordinate is a multiple of
// 0.5, so the WKT fixture carries it exactly.
func genDegenerateGeoms(n int, seed int64) []geom.Geometry {
	r := rand.New(rand.NewSource(seed))
	gridLine := func() float64 { return 12.5 * float64(1+r.Intn(7)) }
	lattice := func(lo, hi float64) float64 { return lo + 0.5*float64(r.Intn(int(2*(hi-lo)))) }
	ring := func(pts ...geom.Point) []geom.Point { return append(pts, pts[0]) }
	var out []geom.Geometry
	for len(out) < n {
		switch r.Intn(4) {
		case 0: // a square with a square hole
			x, y, s := lattice(0, 80), lattice(0, 80), 4+lattice(0, 12)
			out = append(out, &geom.Polygon{
				Shell: ring(geom.Point{X: x, Y: y}, geom.Point{X: x + s, Y: y}, geom.Point{X: x + s, Y: y + s}, geom.Point{X: x, Y: y + s}),
				Holes: [][]geom.Point{ring(geom.Point{X: x + 1, Y: y + 1}, geom.Point{X: x + 1, Y: y + s - 1}, geom.Point{X: x + s - 1, Y: y + s - 1}, geom.Point{X: x + s - 1, Y: y + 1})},
			})
		case 1: // two quads sharing a border that lies on a vertical grid line
			x, y := gridLine(), lattice(0, 80)
			a, b, h := lattice(0, 4), 6+lattice(0, 4), 10+lattice(0, 5)
			w1, w2 := 1+lattice(0, 8), 1+lattice(0, 8)
			out = append(out,
				&geom.Polygon{Shell: ring(geom.Point{X: x - w1, Y: y}, geom.Point{X: x, Y: y + a}, geom.Point{X: x, Y: y + b}, geom.Point{X: x - w1, Y: y + h})},
				&geom.Polygon{Shell: ring(geom.Point{X: x, Y: y + a}, geom.Point{X: x + w2, Y: y}, geom.Point{X: x + w2, Y: y + h}, geom.Point{X: x, Y: y + b})})
		case 2: // two triangles sharing a diagonal
			x, y, s := lattice(0, 85), lattice(0, 85), 1+lattice(0, 12)
			out = append(out,
				&geom.Polygon{Shell: ring(geom.Point{X: x, Y: y}, geom.Point{X: x + s, Y: y + s}, geom.Point{X: x, Y: y + s})},
				&geom.Polygon{Shell: ring(geom.Point{X: x, Y: y}, geom.Point{X: x + s, Y: y}, geom.Point{X: x + s, Y: y + s})})
		default: // vertices on grid lines: a triangle at a cell corner, a
			// line along a grid line, a point on a grid crossing
			cx, cy := gridLine(), gridLine()
			out = append(out,
				&geom.Polygon{Shell: ring(geom.Point{X: cx, Y: cy}, geom.Point{X: cx + lattice(1, 8), Y: cy}, geom.Point{X: cx, Y: cy - lattice(1, 8)})},
				&geom.LineString{Pts: []geom.Point{{X: cx, Y: lattice(0, 90)}, {X: cx, Y: lattice(0, 90)}, {X: lattice(0, 90), Y: cy}}},
				geom.Point{X: cx, Y: cy})
		}
	}
	return out[:n]
}

// wktFixture writes the geometries as newline-delimited WKT.
func wktFixture(t *testing.T, geoms []geom.Geometry) *pfs.File {
	t.Helper()
	fs, err := pfs.New(pfs.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("pipeline.wkt", 8, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range geoms {
		f.Append([]byte(wkt.Format(g)))
		f.Append([]byte{'\n'})
	}
	return f
}

// wkbFixture writes the same geometries as length-prefixed WKB records.
func wkbFixture(t *testing.T, geoms []geom.Geometry) *pfs.File {
	t.Helper()
	fs, err := pfs.New(pfs.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("pipeline.wkb", 8, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, g := range geoms {
		buf = wkb.AppendFramed(buf[:0], g)
		f.Append(buf)
	}
	return f
}

// genQueries draws a replicated batch of query rectangles, most inside the
// data extent, one degenerate (point-sized), one far outside.
func genQueries(n int, seed int64) []geom.Envelope {
	r := rand.New(rand.NewSource(seed))
	out := make([]geom.Envelope, 0, n+2)
	for i := 0; i < n; i++ {
		x, y := r.Float64()*90, r.Float64()*90
		out = append(out, geom.Envelope{MinX: x, MinY: y, MaxX: x + 5 + r.Float64()*10, MaxY: y + 5 + r.Float64()*10})
	}
	out = append(out, geom.Envelope{MinX: 50, MinY: 50, MaxX: 50, MaxY: 50})
	out = append(out, geom.Envelope{MinX: 400, MinY: 400, MaxX: 410, MaxY: 410})
	return out
}

// TestPipelineEquivalenceMatrix is the tentpole's contract: for every
// framing × strategy configuration, the streamed pipeline
// (BuildIndexStream / RangeQueryFiles) and its backpressure variant must
// reproduce the materialized pipeline exactly — per-rank read output and
// ReadStats, per-cell index cardinalities and geometry multisets, query
// matches by identity, build/query phase timings, and the final virtual
// clock, all compared bitwise.
func TestPipelineEquivalenceMatrix(t *testing.T) {
	geoms := genGeoms(420, 61)
	files := []struct {
		name string
		pf   *pfs.File
		mk   func() core.Parser
		fr   core.Framing
	}{
		{"delimited", wktFixture(t, geoms), func() core.Parser { return core.NewWKTParser() }, nil},
		{"length-prefixed", wkbFixture(t, geoms), func() core.Parser { return core.NewWKBParser() }, core.LengthPrefixed()},
	}
	queries := genQueries(12, 62)
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

	for _, fc := range files {
		for _, strat := range []core.Strategy{core.MessageBased, core.Overlap} {
			label := fmt.Sprintf("%s %s", fc.name, strat)
			cfg := Config{
				File:   fc.pf,
				Parser: fc.mk,
				ReadOpt: core.ReadOptions{
					BlockSize: 1 << 10, Strategy: strat, MaxGeomSize: 2 << 10,
					Framing: fc.fr, StreamBatch: 29,
				},
				Envelope:    world,
				GridCells:   64,
				WindowCells: 7, // 10 sliding-window phases over 64 cells
				Queries:     queries,
				Ranks:       3,
			}
			AssertAllEquivalent(t, label, RunAll(t, cfg))
		}
	}
}

// TestPipelineEquivalenceSinglePhase covers the degenerate window shapes
// the matrix above skips: everything in one exchange phase, and one cell
// per phase.
func TestPipelineEquivalenceSinglePhase(t *testing.T) {
	geoms := genGeoms(180, 63)
	pf := wktFixture(t, geoms)
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	for _, window := range []int{0, 1} {
		cfg := Config{
			File:        pf,
			Parser:      func() core.Parser { return core.NewWKTParser() },
			ReadOpt:     core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 17},
			Envelope:    world,
			GridCells:   16,
			WindowCells: window,
			Queries:     genQueries(6, 64),
			Ranks:       2,
		}
		AssertAllEquivalent(t, fmt.Sprintf("window=%d", window), RunAll(t, cfg))
	}
}

// genSkewedGeoms draws a layer with most of its mass in the hot corner
// [0,15)^2 — the shape the skew-aware partition exists for.
func genSkewedGeoms(n int, seed int64) []geom.Geometry {
	r := rand.New(rand.NewSource(seed))
	out := make([]geom.Geometry, n)
	for i := range out {
		var x, y float64
		if r.Intn(10) < 8 {
			x, y = r.Float64()*14, r.Float64()*14
		} else {
			x, y = r.Float64()*90, r.Float64()*90
		}
		e := geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64()*2, MaxY: y + r.Float64()*2}
		out[i] = e.ToPolygon()
	}
	return out
}

// TestPipelineEquivalenceAdaptivePartition runs the matrix column for the
// skew-aware partition: every mode — materialized, streamed, and streamed
// with backpressure — over the same grid.Adaptive (built from a histogram
// of the skewed layer, exactly as core.SamplePartition builds one) must
// reproduce the materialized run bitwise, including the cell-to-rank
// placement the partition carries in place of round-robin.
func TestPipelineEquivalenceAdaptivePartition(t *testing.T) {
	geoms := genSkewedGeoms(400, 67)
	pf := wktFixture(t, geoms)
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	const ranks = 3
	hist, err := grid.NewHistogram(world, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range geoms {
		hist.Add(g.Envelope(), 1)
	}
	part, err := grid.BuildAdaptive(hist, grid.AdaptiveOptions{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{0, 5} {
		cfg := Config{
			File:        pf,
			Parser:      func() core.Parser { return core.NewWKTParser() },
			ReadOpt:     core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 19},
			Envelope:    world,
			WindowCells: window,
			Queries:     genQueries(8, 68),
			Ranks:       ranks,
			Partition:   part,
		}
		AssertAllEquivalent(t, fmt.Sprintf("adaptive window=%d", window), RunAll(t, cfg))
	}
}

// TestPipelineEquivalenceUndersizedEnvelope pins the equivalence when the
// caller-supplied envelope is smaller than the data, so most geometries
// reach the grid only through PR 4's border-cell clamping.
func TestPipelineEquivalenceUndersizedEnvelope(t *testing.T) {
	geoms := genGeoms(200, 65)
	pf := wktFixture(t, geoms)
	small := geom.Envelope{MinX: 0, MinY: 0, MaxX: 35, MaxY: 35}
	cfg := Config{
		File:        pf,
		Parser:      func() core.Parser { return core.NewWKTParser() },
		ReadOpt:     core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 23},
		Envelope:    small,
		GridCells:   25,
		WindowCells: 4,
		Queries:     genQueries(8, 66),
		Ranks:       3,
	}
	AssertAllEquivalent(t, "undersized envelope", RunAll(t, cfg))
}

// TestPipelineEquivalenceDegenerate runs the degenerate layer through
// every mode, the service included, against queries whose edges lie on
// grid lines and shared borders. The answers must also equal a brute-force
// evaluation of every query against every geometry: a pair on a cell line
// is reported exactly once, by one rank.
func TestPipelineEquivalenceDegenerate(t *testing.T) {
	geoms := genDegenerateGeoms(300, 75)
	queries := genQueries(6, 76)
	for _, q := range [][4]float64{
		{12.5, 12.5, 37.5, 37.5}, {25, 0, 50, 100}, {0, 50, 100, 62.5},
		{37.5, 37.5, 37.5, 37.5}, {60, 12.5, 62.5, 87.5}, {12.5, 40, 87.5, 40.5},
	} {
		queries = append(queries, geom.Envelope{MinX: q[0], MinY: q[1], MaxX: q[2], MaxY: q[3]})
	}
	cfg := Config{
		File:        wktFixture(t, geoms),
		Parser:      func() core.Parser { return core.NewWKTParser() },
		ReadOpt:     core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 23},
		Envelope:    geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		GridCells:   64,
		WindowCells: 7,
		Queries:     queries,
		Ranks:       3,
	}
	results := RunAll(t, cfg)
	AssertAllEquivalent(t, "degenerate", results)
	AssertEquivalent(t, "degenerate", RunServe(t, cfg, 4), results[0])

	var want, got []string
	for qi, q := range queries {
		for _, g := range geoms {
			if geom.Intersects(g, q.ToPolygon()) {
				want = append(want, fmt.Sprintf("%d:%s", qi, wkt.Format(g)))
			}
		}
	}
	for _, hits := range results[0].QueryHits {
		got = append(got, hits...)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("the pipeline answered %d pairs, brute force %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: the pipeline answered %s, brute force %s", i, got[i], want[i])
		}
	}
}
