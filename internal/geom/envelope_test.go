package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyEnvelope(t *testing.T) {
	e := EmptyEnvelope()
	if !e.IsEmpty() {
		t.Fatal("EmptyEnvelope should be empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Errorf("empty envelope has nonzero size: area=%v w=%v h=%v", e.Area(), e.Width(), e.Height())
	}
	if e.Intersects(Envelope{0, 0, 1, 1}) {
		t.Error("empty envelope must not intersect anything")
	}
	if e.Contains(Envelope{0, 0, 1, 1}) || (Envelope{0, 0, 1, 1}).Contains(e) {
		t.Error("containment with empty envelope must be false")
	}
}

func TestEnvelopeUnionBasic(t *testing.T) {
	a := Envelope{0, 0, 1, 1}
	b := Envelope{2, -1, 3, 0.5}
	u := a.Union(b)
	want := Envelope{0, -1, 3, 1}
	if u != want {
		t.Errorf("Union = %+v, want %+v", u, want)
	}
	if got := EmptyEnvelope().Union(a); got != a {
		t.Errorf("empty ∪ a = %+v, want %+v", got, a)
	}
	if got := a.Union(EmptyEnvelope()); got != a {
		t.Errorf("a ∪ empty = %+v, want %+v", got, a)
	}
}

func TestEnvelopeIntersection(t *testing.T) {
	a := Envelope{0, 0, 2, 2}
	b := Envelope{1, 1, 3, 3}
	got := a.Intersection(b)
	want := Envelope{1, 1, 2, 2}
	if got != want {
		t.Errorf("Intersection = %+v, want %+v", got, want)
	}
	c := Envelope{5, 5, 6, 6}
	if !a.Intersection(c).IsEmpty() {
		t.Error("disjoint intersection should be empty")
	}
	// Boundary touch yields a degenerate but non-empty envelope.
	d := Envelope{2, 0, 4, 2}
	touch := a.Intersection(d)
	if touch.IsEmpty() {
		t.Error("touching envelopes should intersect in a degenerate envelope")
	}
	if touch.Area() != 0 {
		t.Errorf("touch area = %v, want 0", touch.Area())
	}
}

func TestEnvelopeIntersectsContains(t *testing.T) {
	a := Envelope{0, 0, 10, 10}
	cases := []struct {
		name       string
		b          Envelope
		intersects bool
		contains   bool
	}{
		{"inside", Envelope{1, 1, 2, 2}, true, true},
		{"equal", a, true, true},
		{"overlap", Envelope{5, 5, 15, 15}, true, false},
		{"edge-touch", Envelope{10, 0, 20, 10}, true, false},
		{"corner-touch", Envelope{10, 10, 20, 20}, true, false},
		{"disjoint", Envelope{11, 11, 12, 12}, false, false},
		{"covering", Envelope{-1, -1, 11, 11}, true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := a.Intersects(c.b); got != c.intersects {
				t.Errorf("Intersects = %v, want %v", got, c.intersects)
			}
			if got := a.Contains(c.b); got != c.contains {
				t.Errorf("Contains = %v, want %v", got, c.contains)
			}
		})
	}
}

func TestEnvelopeExpand(t *testing.T) {
	e := Envelope{0, 0, 2, 2}.ExpandBy(1)
	if e != (Envelope{-1, -1, 3, 3}) {
		t.Errorf("ExpandBy(1) = %+v", e)
	}
	if got := (Envelope{0, 0, 1, 1}).ExpandBy(-2); !got.IsEmpty() {
		t.Errorf("over-shrunk envelope should be empty, got %+v", got)
	}
	pt := EmptyEnvelope().ExpandToPoint(3, 4)
	if pt != (Envelope{3, 4, 3, 4}) {
		t.Errorf("ExpandToPoint on empty = %+v", pt)
	}
}

func TestEnvelopeCenterCornersPolygon(t *testing.T) {
	e := Envelope{0, 0, 4, 2}
	if e.Center() != (Point{2, 1}) {
		t.Errorf("Center = %+v", e.Center())
	}
	poly := e.ToPolygon()
	if poly.NumPoints() != 5 {
		t.Errorf("envelope polygon should have 5 vertices, got %d", poly.NumPoints())
	}
	if got := poly.Area(); math.Abs(got-8) > 1e-12 {
		t.Errorf("envelope polygon area = %v, want 8", got)
	}
	if poly.Envelope() != e {
		t.Errorf("round-trip envelope = %+v, want %+v", poly.Envelope(), e)
	}
}

// randomEnvelope builds a non-empty envelope from four floats.
func randomEnvelope(r *rand.Rand) Envelope {
	x1, x2 := r.Float64()*100-50, r.Float64()*100-50
	y1, y2 := r.Float64()*100-50, r.Float64()*100-50
	return Envelope{math.Min(x1, x2), math.Min(y1, y2), math.Max(x1, x2), math.Max(y1, y2)}
}

func TestEnvelopeUnionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cfg := &quick.Config{MaxCount: 500, Rand: r}

	commutative := func(ax, ay, bx, by, aw, ah, bw, bh float64) bool {
		a := Envelope{ax, ay, ax + math.Abs(aw), ay + math.Abs(ah)}
		b := Envelope{bx, by, bx + math.Abs(bw), by + math.Abs(bh)}
		return a.Union(b) == b.Union(a)
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Errorf("union not commutative: %v", err)
	}

	associative := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := randomEnvelope(rr), randomEnvelope(rr), randomEnvelope(rr)
		return a.Union(b).Union(c) == a.Union(b.Union(c))
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Errorf("union not associative: %v", err)
	}

	idempotent := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randomEnvelope(rr)
		return a.Union(a) == a
	}
	if err := quick.Check(idempotent, cfg); err != nil {
		t.Errorf("union not idempotent: %v", err)
	}

	containsBoth := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomEnvelope(rr), randomEnvelope(rr)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(containsBoth, cfg); err != nil {
		t.Errorf("union does not contain operands: %v", err)
	}
}

func TestEnvelopeIntersectionSymmetry(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomEnvelope(rr), randomEnvelope(rr)
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		// Intersection is non-empty iff Intersects.
		return a.Intersects(b) == !a.Intersection(b).IsEmpty()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("intersects/intersection inconsistent: %v", err)
	}
}

// foldRuns are vertex runs where a fold's order could show: NaNs of
// distinct payloads (quiet, signalling, negative) at varied positions,
// signed zeros, infinities, and runs around the four-vertex block size.
func foldRuns() [][]Point {
	nan := func(bits uint64) float64 { return math.Float64frombits(bits) }
	a, b, c, d := nan(0x7ff8000000000abc), nan(0xfff8000000000001), nan(0x7ff0000000000001), nan(0x7ff8dead0000beef)
	inf, nz := math.Inf(1), math.Copysign(0, -1)
	return [][]Point{
		{{a, 1}},
		{{nz, 0}, {0, nz}},
		{{1, nz}, {0, 2}, {nz, 0}, {-inf, 3}},
		{{5, inf}, {1, nz}, {0, 2}, {nz, 0}, {-inf, 3}},
		{{a, 1}, {2, b}, {nz, 0}, {3, -inf}, {c, d}, {0, nz}},
		{{1, 2}, {a, nz}, {0, b}, {-inf, inf}, {inf, -inf}, {c, 0}, {-1, d}},
		{{a, -1}, {b, -2}, {c, -3}, {d, -4}, {nz, nz}},
	}
}

// foldSplit folds pts with s FoldPoint steps, then as many FoldBlock steps
// as fit, then FoldPoint steps for the tail, and finishes with CanonicalNaN.
func foldSplit(pts []Point, s int) Envelope {
	e := EmptyEnvelope()
	i := 0
	for ; i < s; i++ {
		e = FoldPoint(e, i, pts[i].X, pts[i].Y)
	}
	for ; i+4 <= len(pts); i += 4 {
		q := pts[i : i+4]
		e = FoldBlock(e, q[0].X, q[0].Y, q[1].X, q[1].Y, q[2].X, q[2].Y, q[3].X, q[3].Y)
	}
	for ; i < len(pts); i++ {
		e = FoldPoint(e, i, pts[i].X, pts[i].Y)
	}
	return CanonicalNaN(e)
}

// oracleSide is one side of a run's envelope by definition: math.NaN() if
// any coordinate is a NaN, else the least (or greatest) coordinate, with -0
// below +0.
func oracleSide(vs []float64, least bool) float64 {
	m := vs[0]
	for _, v := range vs {
		if math.IsNaN(v) {
			return math.NaN()
		}
		below := v < m || v == m && math.Signbit(v) && !math.Signbit(m)
		above := v > m || v == m && !math.Signbit(v) && math.Signbit(m)
		if least && below || !least && above {
			m = v
		}
	}
	return m
}

func sameEnvBits(a, b Envelope) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) &&
		math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) &&
		math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

// permute calls f with every permutation of pts (Heap's algorithm, in
// place).
func permute(pts []Point, k int, f func([]Point)) {
	if k <= 1 {
		f(pts)
		return
	}
	for i := 0; i < k; i++ {
		permute(pts, k-1, f)
		if k%2 == 0 {
			pts[i], pts[k-1] = pts[k-1], pts[i]
		} else {
			pts[0], pts[k-1] = pts[k-1], pts[0]
		}
	}
}

// TestEnvelopeFoldOrderFree pins the envelope contract: EnvelopeOf is the
// run's envelope by definition (oracleSide), every NaN side carrying
// math.NaN()'s bits; and every permutation of the run, folded by every
// split into FoldPoint and FoldBlock steps or by FoldPoint alone, and
// finished by CanonicalNaN, is that envelope bit for bit.
func TestEnvelopeFoldOrderFree(t *testing.T) {
	for r, run := range foldRuns() {
		xs, ys := make([]float64, len(run)), make([]float64, len(run))
		for i, p := range run {
			xs[i], ys[i] = p.X, p.Y
		}
		want := Envelope{
			MinX: oracleSide(xs, true), MinY: oracleSide(ys, true),
			MaxX: oracleSide(xs, false), MaxY: oracleSide(ys, false),
		}
		if got := EnvelopeOf(run); !sameEnvBits(got, want) {
			t.Fatalf("run %d: EnvelopeOf %+v, want %+v", r, got, want)
		}
		perm := append([]Point(nil), run...)
		permute(perm, len(perm), func(pts []Point) {
			if got := EnvelopeOf(pts); !sameEnvBits(got, want) {
				t.Fatalf("run %d as %v: EnvelopeOf %+v, want %+v", r, pts, got, want)
			}
			seq := EmptyEnvelope()
			for i, p := range pts {
				seq = FoldPoint(seq, i, p.X, p.Y)
			}
			if got := CanonicalNaN(seq); !sameEnvBits(got, want) {
				t.Fatalf("run %d as %v: FoldPoint fold %+v, want %+v", r, pts, got, want)
			}
			for s := 0; s <= len(pts); s++ {
				if got := foldSplit(pts, s); !sameEnvBits(got, want) {
					t.Fatalf("run %d as %v split at %d: %+v, want %+v", r, pts, s, got, want)
				}
			}
		})
	}
}
