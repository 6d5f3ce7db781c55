package grid

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func world() geom.Envelope { return geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100} }

func TestNewValidation(t *testing.T) {
	if _, err := New(geom.EmptyEnvelope(), 4, 4); err == nil {
		t.Error("empty envelope accepted")
	}
	if _, err := New(world(), 0, 4); err == nil {
		t.Error("zero cols accepted")
	}
	if _, err := New(world(), 4, -1); err == nil {
		t.Error("negative rows accepted")
	}
	g, err := New(geom.Envelope{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}, 2, 2)
	if err != nil {
		t.Fatalf("degenerate world rejected: %v", err)
	}
	if g.CellsFor(geom.Envelope{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}) == nil {
		t.Error("point world cannot place points")
	}
}

func TestCellGeometry(t *testing.T) {
	g, _ := New(world(), 4, 2) // cells 25x50
	if g.NumCells() != 8 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	if g.CellEnv(0) != (geom.Envelope{MinX: 0, MinY: 0, MaxX: 25, MaxY: 50}) {
		t.Errorf("cell 0 = %+v", g.CellEnv(0))
	}
	if g.CellEnv(7) != (geom.Envelope{MinX: 75, MinY: 50, MaxX: 100, MaxY: 100}) {
		t.Errorf("cell 7 = %+v", g.CellEnv(7))
	}
	// The union of all cells is the world.
	u := geom.EmptyEnvelope()
	for i := 0; i < g.NumCells(); i++ {
		u = u.Union(g.CellEnv(i))
	}
	if u != world() {
		t.Errorf("cells do not tile the world: %+v", u)
	}
}

func TestCellAt(t *testing.T) {
	g, _ := New(world(), 10, 10)
	cases := []struct {
		x, y float64
		want int
	}{
		{0, 0, 0},
		{5, 5, 0},
		{15, 5, 1},
		{5, 15, 10},
		{99, 99, 99},
		{100, 100, 99}, // clamped at max corner
		{-5, -5, 0},    // clamped below
		{105, 50, 59},  // clamped right: col 9, row 5
	}
	for _, c := range cases {
		if got := g.CellAt(c.x, c.y); got != c.want {
			t.Errorf("CellAt(%v,%v) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestCellsForReplication(t *testing.T) {
	g, _ := New(world(), 10, 10)
	// Entirely inside one cell.
	got := g.CellsFor(geom.Envelope{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2})
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("inside-one-cell = %v", got)
	}
	// Spanning a 2x2 block of cells.
	got = g.CellsFor(geom.Envelope{MinX: 8, MinY: 8, MaxX: 12, MaxY: 12})
	if !reflect.DeepEqual(got, []int{0, 1, 10, 11}) {
		t.Errorf("2x2 span = %v", got)
	}
	// Off-grid envelopes clamp to border cells.
	got = g.CellsFor(geom.Envelope{MinX: -10, MinY: -10, MaxX: -5, MaxY: -5})
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("off-grid = %v", got)
	}
	if g.CellsFor(geom.EmptyEnvelope()) != nil {
		t.Error("empty envelope should map to no cells")
	}
}

func TestRefCellDuplicateAvoidance(t *testing.T) {
	g, _ := New(world(), 10, 10)
	e := geom.Envelope{MinX: 8, MinY: 8, MaxX: 12, MaxY: 12}
	cells := g.CellsFor(e)
	ref := g.RefCell(e)
	if ref != 0 {
		t.Errorf("RefCell = %d, want 0 (lower-left)", ref)
	}
	// The reference cell must be among the replicated cells.
	found := false
	for _, c := range cells {
		if c == ref {
			found = true
		}
	}
	if !found {
		t.Error("reference cell not in replication set")
	}
}

// Property: the arithmetic cell mapper and the R-tree cell index (the
// paper's construction) agree for random envelopes.
func TestCellIndexMatchesArithmetic(t *testing.T) {
	g, _ := New(world(), 16, 12)
	ci := NewCellIndex(g)
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(31))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, y := r.Float64()*110-5, r.Float64()*110-5
		e := geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64()*30, MaxY: y + r.Float64()*30}
		a := g.CellsFor(e)
		b := ci.CellsFor(e)
		sort.Ints(b)
		if !e.Intersects(g.Env()) {
			// Fully off-world envelopes: the arithmetic path clamps to a
			// border cell (so clamped data still lands somewhere); the
			// R-tree correctly reports no intersection.
			return len(b) == 0
		}
		// On-world: the R-tree result must cover the arithmetic cells and
		// only add boundary-touching ones.
		bm := map[int]bool{}
		for _, c := range b {
			bm[c] = true
		}
		for _, c := range a {
			if !bm[c] {
				return false
			}
		}
		for _, c := range b {
			if !g.CellEnv(c).Intersects(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("cell index mismatch: %v", err)
	}
}

func TestReplicationInvariant(t *testing.T) {
	// Every cell in CellsFor(e) genuinely overlaps e, and every other cell
	// does not strictly overlap e's interior.
	g, _ := New(world(), 8, 8)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		x, y := r.Float64()*90, r.Float64()*90
		e := geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64()*20, MaxY: y + r.Float64()*20}
		cells := g.CellsFor(e)
		inSet := map[int]bool{}
		for _, c := range cells {
			inSet[c] = true
			if !g.CellEnv(c).Intersects(e) {
				t.Fatalf("cell %d in replication set does not intersect %+v", c, e)
			}
		}
		for c := 0; c < g.NumCells(); c++ {
			if inSet[c] {
				continue
			}
			inter := g.CellEnv(c).Intersection(e)
			if !inter.IsEmpty() && inter.Area() > 0 {
				t.Fatalf("cell %d overlaps %+v but is not in replication set", c, e)
			}
		}
	}
}

// TestCellAtBoundaryConsistency pins the clamp repair: CellAt and CellEnv
// must describe the same half-open column/row intervals even when the
// division in the clamp and the multiplication in CellEnv round a cell
// boundary to different ulps. The regression case is a [0,1] world whose
// cell width is inexact (e.g. 6 columns): one ulp below the rounded
// boundary 3*fl(1/6) the unrepaired division already lands in column 3,
// but CellEnv(3).MinX is above the point — so a geometry there was placed
// only left of the edge while queries started iterating at the edge, and
// the pair was silently dropped on every rank.
func TestCellAtBoundaryConsistency(t *testing.T) {
	for _, cols := range []int{2, 3, 5, 6, 7, 9, 11, 13, 23, 37, 50} {
		g, err := New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, cols, cols)
		if err != nil {
			t.Fatal(err)
		}
		for c := 1; c < cols; c++ {
			// The boundary exactly as CellEnv computes it.
			b := g.CellEnv(c).MinX
			for _, x := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, 1)} {
				if x < 0 || x > 1 {
					continue
				}
				col := g.CellAt(x, 0.5) % cols
				ce := g.CellEnv(col)
				if x < ce.MinX || (col < cols-1 && x >= ce.MaxX) {
					t.Fatalf("cols=%d: CellAt(%v) = col %d but CellEnv(col) = [%v,%v): point outside its own cell",
						cols, x, col, ce.MinX, ce.MaxX)
				}
				row := g.CellAt(0.5, x) / cols
				re := g.CellEnv(row * cols)
				if x < re.MinY || (row < cols-1 && x >= re.MaxY) {
					t.Fatalf("rows=%d: CellAt(y=%v) = row %d but CellEnv(row) = [%v,%v): point outside its own cell",
						cols, x, row, re.MinY, re.MaxY)
				}
			}
		}
	}
}

// TestPairRefCell pins the duplicate-avoidance reference cell of a
// candidate pair: identical to the historical RefCell(Intersection) rule
// for genuinely overlapping pairs, and well-defined — a deterministic
// in-world cell — for the degenerate and barely-disjoint shapes where
// Intersection collapses.
func TestPairRefCell(t *testing.T) {
	g, _ := New(world(), 10, 10)

	// Overlapping pair: bitwise the same cell as the Intersection-based rule.
	a := geom.Envelope{MinX: 8, MinY: 8, MaxX: 22, MaxY: 12}
	b := geom.Envelope{MinX: 15, MinY: 5, MaxX: 30, MaxY: 9}
	if got, want := PairRefCell(g, a, b), g.RefCell(a.Intersection(b)); got != want {
		t.Errorf("overlapping pair: PairRefCell = %d, RefCell(Intersection) = %d", got, want)
	}

	// Edge-touching pair straddling a cell border: the intersection is the
	// degenerate segment x=20, whose lower-left corner sits exactly on the
	// border — the reference cell is the one starting at the border.
	a = geom.Envelope{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}
	b = geom.Envelope{MinX: 20, MinY: 0, MaxX: 40, MaxY: 20}
	if got, want := PairRefCell(g, a, b), g.CellAt(20, 0); got != want {
		t.Errorf("edge-touching pair: PairRefCell = %d, want %d", got, want)
	}

	// Corner-touching pair: degenerate point intersection at (30, 30).
	a = geom.Envelope{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30}
	b = geom.Envelope{MinX: 30, MinY: 30, MaxX: 50, MaxY: 50}
	if got, want := PairRefCell(g, a, b), g.CellAt(30, 30); got != want {
		t.Errorf("corner-touching pair: PairRefCell = %d, want %d", got, want)
	}

	// Disjoint pair: Intersection normalizes to EmptyEnvelope, so the old
	// rule pushed its (+Inf,+Inf) corner through an overflowing float-to-int
	// conversion — whatever border cell that clamps to is an accident of the
	// platform's overflow behavior. PairRefCell stays at the deterministic
	// in-range point (30, 30).
	a = geom.Envelope{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	b = geom.Envelope{MinX: 30, MinY: 30, MaxX: 40, MaxY: 40}
	if got, want := PairRefCell(g, a, b), g.CellAt(30, 30); got != want {
		t.Errorf("disjoint pair: PairRefCell = %d, want %d", got, want)
	}
}

func TestMappings(t *testing.T) {
	if RoundRobin(7, 4) != 3 || RoundRobin(8, 4) != 0 {
		t.Error("round robin mapping wrong")
	}
}

// TestAppendCellsFor: for every lookup (the uniform Grid, the Adaptive
// partition, and the R-tree CellIndex over each), AppendCellsFor keeps
// dst's prefix and appends exactly CellsFor's cells in CellsFor's order,
// empty envelopes appending nothing; and a recycled dst that has grown to
// its working size is reused without allocating, which is what lets the
// exchange project a record with no allocation.
func TestAppendCellsFor(t *testing.T) {
	g, _ := New(world(), 16, 12)
	a, err := BuildAdaptive(skewedHistogram(t, 64), AdaptiveOptions{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	lookups := map[string]interface {
		CellsFor(geom.Envelope) []int
		AppendCellsFor([]int, geom.Envelope) []int
	}{
		"grid": g, "adaptive": a, "grid index": NewCellIndex(g), "adaptive index": NewCellIndex(a),
	}
	r := rand.New(rand.NewSource(5))
	envs := []geom.Envelope{geom.EmptyEnvelope(), {MinX: 200, MinY: 200, MaxX: 210, MaxY: 210}}
	for i := 0; i < 200; i++ {
		x, y := r.Float64()*110-5, r.Float64()*110-5
		envs = append(envs, geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64()*30, MaxY: y + r.Float64()*30})
	}
	prefix := []int{-3, -2}
	for name, l := range lookups {
		var scratch []int
		for _, e := range envs {
			want := append(append([]int(nil), prefix...), l.CellsFor(e)...)
			if got := l.AppendCellsFor(append([]int(nil), prefix...), e); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: AppendCellsFor(%v, %+v) = %v, want %v", name, prefix, e, got, want)
			}
			scratch = l.AppendCellsFor(scratch[:0], e)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			for _, e := range envs {
				scratch = l.AppendCellsFor(scratch[:0], e)
			}
		}); allocs != 0 {
			t.Errorf("%s: a recycled dst allocated %v times per pass", name, allocs)
		}
	}
}
