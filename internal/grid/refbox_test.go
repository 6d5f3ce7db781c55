package grid

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
)

// wrapped is a Partition the package has no box form for: RefBoxOf must
// fall back to asking PairRefCell.
type wrapped struct{ Partition }

// splitCoords returns every coordinate a partition's cells start or end at
// on one axis, one ulp either side of each, and coordinates beyond the
// world: just outside, far outside, infinite and NaN.
func splitCoords(p Partition, axis func(geom.Envelope) (lo, hi float64)) []float64 {
	var out []float64
	for id := 0; id < p.NumCells(); id++ {
		lo, hi := axis(p.CellEnv(id))
		for _, v := range []float64{lo, hi} {
			out = append(out, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		out = append(out, lo/2+hi/2)
	}
	lo, hi := axis(p.Env())
	out = append(out, lo-1, hi+1, -1e300, 1e300, math.Inf(-1), math.Inf(1), math.NaN())
	slices.Sort(out)
	return slices.CompactFunc(out, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}

// checkRefBoxes holds every cell's RefBox against PairRefCell at every
// pair of split coordinates, as the reference point of a pair whose larger
// MinX and MinY come from either envelope.
func checkRefBoxes(t *testing.T, name string, p Partition) {
	t.Helper()
	xs := splitCoords(p, func(e geom.Envelope) (float64, float64) { return e.MinX, e.MaxX })
	ys := splitCoords(p, func(e geom.Envelope) (float64, float64) { return e.MinY, e.MaxY })
	boxes := make([]RefBox, p.NumCells())
	for id := range boxes {
		boxes[id] = RefBoxOf(p, id)
	}
	outside := []RefBox{RefBoxOf(p, -1), RefBoxOf(p, p.NumCells())}
	for i, x := range xs {
		for j, y := range ys {
			a := geom.Envelope{MinX: x, MinY: -5e300, MaxX: x + 1, MaxY: 1}
			b := geom.Envelope{MinX: -5e300, MinY: y, MaxX: 1, MaxY: y + 1}
			if (i+j)%2 == 1 {
				a, b = b, a
			}
			want := PairRefCell(p, a, b)
			owners := 0
			for id := range boxes {
				got := boxes[id].Owns(a, b)
				if got != (want == id) {
					t.Fatalf("%s: ref point (%v, %v): cell %d Owns = %v, PairRefCell = %d", name, x, y, id, got, want)
				}
				if got {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("%s: ref point (%v, %v) owned by %d cells", name, x, y, owners)
			}
			for _, box := range outside {
				if box.Owns(a, b) {
					t.Fatalf("%s: ref point (%v, %v) owned by an id that names no cell", name, x, y)
				}
			}
		}
	}
}

// TestRefBoxMatchesPairRefCell pins the refine loop's duplicate rule — one
// cell's box, compared — to PairRefCell on both partitions, including the
// ones whose cells are narrower than half an ulp, where an inner cell's
// edge equals the world's.
func TestRefBoxMatchesPairRefCell(t *testing.T) {
	thirds, err := New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(world(), 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Cells one unit wide at x = 1e16, where an ulp is 2: MinX + 1*cellW
	// rounds to MinX, so column 0 and row 0 hold no point of the world —
	// they own only what lies beyond its edge — and column 1 starts at the
	// world's MinX without being a border column.
	far, err := New(geom.Envelope{MinX: 1e16, MinY: 1e16, MaxX: 1e16 + 8, MaxY: 1e16 + 8}, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if far.CellEnv(1).MinX != far.Env().MinX {
		t.Fatalf("fixture: column 1 starts at %v, not at the world's edge", far.CellEnv(1).MinX)
	}
	if got := far.CellAt(1e16, 1e16); got != 9 {
		t.Fatalf("fixture: the world's corner is in cell %d, want 9 (column 1, row 1)", got)
	}
	skewed, err := BuildAdaptive(skewedHistogram(t, 64), AdaptiveOptions{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHistogram(geom.Envelope{MinX: 1e16, MinY: 1e16, MaxX: 1e16 + 8, MaxY: 1e16 + 8}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Weights() {
		h.Weights()[i] = 1
	}
	farAdaptive, err := BuildAdaptive(h, AdaptiveOptions{Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    Partition
	}{
		{"grid 3x7 on the unit square", thirds},
		{"grid 10x10", g},
		{"grid 8x8 at 1e16", far},
		{"adaptive skewed", skewed},
		{"adaptive at 1e16", farAdaptive},
		{"fallback", wrapped{g}},
	} {
		checkRefBoxes(t, tc.name, tc.p)
	}
}
