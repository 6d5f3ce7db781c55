package geom

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// The rational oracle: orientation, SegmentsIntersect, PointInPolygon and
// the general path's Intersects, defined as plainly as the package's own
// doc comments define them, over math/big rationals, so that no rounding
// can enter. Only comparisons of input coordinates are done in float64,
// and those are exact. The even-odd rule computes the crossing's x as a
// rational quotient, the definition that orientation's sign replaces.

func rat(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }

func ratSub(u, v float64) *big.Rat { return new(big.Rat).Sub(rat(u), rat(v)) }

// ratOrient is the exact sign of the determinant of b-a and c-a.
func ratOrient(a, b, c Point) int {
	l := new(big.Rat).Mul(ratSub(b.X, a.X), ratSub(c.Y, a.Y))
	r := new(big.Rat).Mul(ratSub(b.Y, a.Y), ratSub(c.X, a.X))
	return l.Cmp(r)
}

// ratBox reports whether p lies in the closed bounding box of ab.
func ratBox(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

func ratOnSegment(a, b, p Point) bool { return ratBox(a, b, p) && ratOrient(a, b, p) == 0 }

// ratSegmentsIntersect: the closed segments share a point — they cross
// properly, or an endpoint of one lies on the other.
func ratSegmentsIntersect(p1, p2, p3, p4 Point) bool {
	// Segments whose boxes miss share no point; skipping them spares the
	// rationals and changes no answer.
	if math.Max(p1.X, p2.X) < math.Min(p3.X, p4.X) || math.Max(p3.X, p4.X) < math.Min(p1.X, p2.X) ||
		math.Max(p1.Y, p2.Y) < math.Min(p3.Y, p4.Y) || math.Max(p3.Y, p4.Y) < math.Min(p1.Y, p2.Y) {
		return false
	}
	d1, d2 := ratOrient(p3, p4, p1), ratOrient(p3, p4, p2)
	d3, d4 := ratOrient(p1, p2, p3), ratOrient(p1, p2, p4)
	if d1*d2 < 0 && d3*d4 < 0 {
		return true
	}
	return (d1 == 0 && ratBox(p3, p4, p1)) || (d2 == 0 && ratBox(p3, p4, p2)) ||
		(d3 == 0 && ratBox(p1, p2, p3)) || (d4 == 0 && ratBox(p1, p2, p4))
}

// ratOnLine: p lies on a segment of the run (consecutive vertices only).
func ratOnLine(p Point, pts []Point) bool {
	for i := 1; i < len(pts); i++ {
		if ratOnSegment(pts[i-1], pts[i], p) {
			return true
		}
	}
	return false
}

// ratInRing is the even-odd rule over the ring closed implicitly: an edge
// that crosses p's height counts when p.X is less than the crossing's x,
// xj + (p.Y-yj)·(xi-xj)/(yi-yj), computed as a rational.
func ratInRing(p Point, ring []Point) bool {
	inside := false
	for i, j := 0, len(ring)-1; i < len(ring); j, i = i, i+1 {
		a, b := ring[j], ring[i]
		if (b.Y > p.Y) != (a.Y > p.Y) {
			x := new(big.Rat).Mul(ratSub(p.Y, a.Y), ratSub(b.X, a.X))
			x.Quo(x, ratSub(b.Y, a.Y))
			x.Add(x, rat(a.X))
			if rat(p.X).Cmp(x) < 0 {
				inside = !inside
			}
		}
	}
	return inside
}

// ratPointInPolygon: inside the polygon or on a ring, outside every hole's
// interior; a point outside the polygon's envelope is outside.
func ratPointInPolygon(p Point, poly *Polygon) bool {
	if !poly.Envelope().ContainsPoint(p.X, p.Y) {
		return false
	}
	if ratOnLine(p, poly.Shell) {
		return true
	}
	if !ratInRing(p, poly.Shell) {
		return false
	}
	for _, h := range poly.Holes {
		if ratOnLine(p, h) {
			return true
		}
		if ratInRing(p, h) {
			return false
		}
	}
	return true
}

// ratRunsCross: some segment of a shares a point with some segment of b.
func ratRunsCross(a, b []Point) bool {
	for i := 1; i < len(a); i++ {
		for j := 1; j < len(b); j++ {
			if ratSegmentsIntersect(a[i-1], a[i], b[j-1], b[j]) {
				return true
			}
		}
	}
	return false
}

// ratRingsCross: the run crosses the polygon's shell or one of its holes.
func ratRingsCross(run []Point, p *Polygon) bool {
	if ratRunsCross(run, p.Shell) {
		return true
	}
	for _, h := range p.Holes {
		if ratRunsCross(run, h) {
			return true
		}
	}
	return false
}

// ratIntersects is the general path's definition: disjoint envelopes miss;
// a multi-geometry meets b iff a component does; two simple shapes meet
// iff their boundaries cross or one holds a vertex of the other (the first
// vertex of a line, the first shell vertex of a polygon).
func ratIntersects(a, b Geometry) bool {
	if !a.Envelope().Intersects(b.Envelope()) {
		return false
	}
	for _, pair := range [2][2]Geometry{{a, b}, {b, a}} {
		var parts []Geometry
		switch g := pair[0].(type) {
		case *MultiPoint:
			for _, p := range g.Pts {
				parts = append(parts, p)
			}
		case *MultiLineString:
			for i := range g.Lines {
				parts = append(parts, &g.Lines[i])
			}
		case *MultiPolygon:
			for i := range g.Polys {
				parts = append(parts, &g.Polys[i])
			}
		default:
			continue
		}
		for _, p := range parts {
			if ratIntersects(p, pair[1]) {
				return true
			}
		}
		return false
	}
	if a.GeomType() > b.GeomType() {
		a, b = b, a
	}
	switch g := a.(type) {
	case Point:
		switch h := b.(type) {
		case Point:
			return g == h
		case *LineString:
			return ratOnLine(g, h.Pts)
		case *Polygon:
			return ratPointInPolygon(g, h)
		}
	case *LineString:
		switch h := b.(type) {
		case *LineString:
			return ratRunsCross(g.Pts, h.Pts)
		case *Polygon:
			return len(g.Pts) > 0 && (ratPointInPolygon(g.Pts[0], h) || ratRingsCross(g.Pts, h))
		}
	case *Polygon:
		h := b.(*Polygon)
		if ratRingsCross(g.Shell, h) {
			return true
		}
		for _, ring := range g.Holes {
			if ratRingsCross(ring, h) {
				return true
			}
		}
		return (len(h.Shell) > 0 && ratPointInPolygon(h.Shell[0], g)) ||
			(len(g.Shell) > 0 && ratPointInPolygon(g.Shell[0], h))
	}
	return false
}

// checkIntersectsOracle holds the general path and the dispatch, both
// operand orders, against the oracle. It returns a description of the
// first disagreement, or "".
func checkIntersectsOracle(a, b Geometry) string {
	want := ratIntersects(a, b)
	for _, c := range []struct {
		name string
		got  bool
	}{
		{"intersectsGeneral(a, b)", intersectsGeneral(a, b)},
		{"intersectsGeneral(b, a)", intersectsGeneral(b, a)},
		{"Intersects(a, b)", Intersects(a, b)},
		{"Intersects(b, a)", Intersects(b, a)},
	} {
		if c.got != want {
			return fmt.Sprintf("%s = %v, oracle = %v", c.name, c.got, want)
		}
	}
	return ""
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// nudge moves v by k ulps, up for k > 0 and down for k < 0.
func nudge(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// jitter moves each coordinate of p by up to two ulps either way, or
// leaves p exact a third of the time.
func jitter(r *rand.Rand, p Point) Point {
	if r.Intn(3) == 0 {
		return p
	}
	return Point{nudge(p.X, r.Intn(5)-2), nudge(p.Y, r.Intn(5)-2)}
}

// decimalPoint draws a point with three decimals in [-1000, 1000)², the
// shape of the coordinates a WKT file carries: rarely a binary fraction.
func decimalPoint(r *rand.Rand) Point {
	return Point{float64(r.Intn(2_000_000)-1_000_000) / 1000, float64(r.Intn(2_000_000)-1_000_000) / 1000}
}

// along is the point at parameter t on the line through p and q, rounded:
// collinear with them up to a rounding, which jitter then widens.
func along(p, q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// nearCollinear draws three points within a few ulps of one line: either
// the classic grid around (0.5, 0.5) against the diagonal (Kettner et al.,
// "Classroom examples of robustness problems"), or a point interpolated
// between two decimal points.
func nearCollinear(r *rand.Rand) (a, b, c Point) {
	if r.Intn(2) == 0 {
		const u = 0x1p-53
		return Point{0.5 + float64(r.Intn(64))*u, 0.5 + float64(r.Intn(64))*u}, Point{12, 12}, Point{24, 24}
	}
	a, b = decimalPoint(r), decimalPoint(r)
	return a, b, jitter(r, along(a, b, r.Float64()*3-1))
}

// degenerateRing draws a closed ring built around one exact degeneracy:
// a zero-area ring (every vertex near one line), a ring with a repeated
// vertex, or a star; unclosed a quarter of the time.
func degenerateRing(r *rand.Rand, c Point, rad float64) []Point {
	n := 3 + r.Intn(6)
	var ring []Point
	switch r.Intn(3) {
	case 0:
		a, b := decimalPoint(r), decimalPoint(r)
		for i := 0; i < n; i++ {
			ring = append(ring, jitter(r, along(a, b, r.Float64())))
		}
	case 1:
		ring = starPolygon(r, c, n, rad/2, rad)
		k := r.Intn(n)
		ring = append(ring[:k+1:k+1], ring[k:]...)
	default:
		ring = starPolygon(r, c, n, rad/2, rad)
	}
	if r.Intn(4) == 0 {
		return ring
	}
	return append(ring, ring[0])
}

// nearBoundary draws a point on, or within a few ulps of, a segment or a
// vertex of ring.
func nearBoundary(r *rand.Rand, ring []Point) Point {
	i := r.Intn(len(ring))
	j := (i + 1) % len(ring)
	if r.Intn(3) == 0 {
		return jitter(r, ring[i])
	}
	return jitter(r, along(ring[i], ring[j], r.Float64()))
}

// TestPredicatesMatchOracle is the differential property test: on inputs
// a few ulps from an exact degeneracy — near-collinear triples, segments
// that touch, overlap or share a vertex, zero-area, unclosed and holed
// rings, polygons sharing an edge — every predicate answers what the
// rational oracle answers. The plain float determinant must get some of
// these wrong, or the inputs prove nothing.
func TestPredicatesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	floatWrong := 0

	// A triple scaled by a power of two checks the fallback's stages at
	// every magnitude: the float expansion, and math/big beyond 2^±450 and
	// into the subnormals.
	scales := []float64{1, 0x1p-1040, 0x1p-600, 0x1p-460, 0x1p440, 0x1p600, 0x1p1010}
	for i := 0; i < 3000; i++ {
		a, b, c := nearCollinear(r)
		for _, p := range [][3]Point{{a, b, c}, {b, c, a}, {c, a, b}, {b, a, c}, {a, c, b}, {c, b, a}} {
			want := ratOrient(p[0], p[1], p[2])
			if got := sign(orientation(p[0], p[1], p[2])); got != want {
				t.Fatalf("orientation%v = %d, oracle %d", p, got, want)
			}
			if got := sign(orientExact(p[0], p[1], p[2], 0)); got != want {
				t.Fatalf("orientExact%v = %d, oracle %d", p, got, want)
			}
			plain := (p[1].X-p[0].X)*(p[2].Y-p[0].Y) - (p[1].Y-p[0].Y)*(p[2].X-p[0].X)
			if sign(plain) != want {
				floatWrong++
			}
		}
		if i%10 == 0 {
			k := scales[r.Intn(len(scales))]
			sa, sb, sc := Point{a.X * k, a.Y * k}, Point{b.X * k, b.Y * k}, Point{c.X * k, c.Y * k}
			if got, want := sign(orientation(sa, sb, sc)), ratOrient(sa, sb, sc); got != want {
				t.Fatalf("orientation(%v, %v, %v) = %d, oracle %d", sa, sb, sc, got, want)
			}
		}
	}

	for i := 0; i < 3000; i++ {
		p1, p2, p3 := nearCollinear(r)
		var p4 Point
		switch r.Intn(4) {
		case 0: // touching: p3 on or beside p1p2, p4 anywhere
			p4 = decimalPoint(r)
		case 1: // collinear overlap or gap
			p4 = jitter(r, along(p1, p2, r.Float64()*3-1))
		case 2: // shared vertex
			p3, p4 = jitter(r, p2), decimalPoint(r)
		default: // crossing near an endpoint
			m := along(p1, p2, r.Float64())
			p3, p4 = jitter(r, along(m, decimalPoint(r), 1e-12)), decimalPoint(r)
		}
		want := ratSegmentsIntersect(p1, p2, p3, p4)
		for _, s := range [][4]Point{{p1, p2, p3, p4}, {p3, p4, p1, p2}, {p2, p1, p4, p3}} {
			if got := SegmentsIntersect(s[0], s[1], s[2], s[3]); got != want {
				t.Fatalf("SegmentsIntersect%v = %v, oracle %v", s, got, want)
			}
		}
	}

	for i := 0; i < 1500; i++ {
		c := decimalPoint(r)
		poly := &Polygon{Shell: degenerateRing(r, c, 1+r.Float64()*50)}
		if r.Intn(2) == 0 {
			poly.Holes = [][]Point{degenerateRing(r, c, 0.4)}
		}
		rings := append([][]Point{poly.Shell}, poly.Holes...)
		for k := 0; k < 4; k++ {
			p := nearBoundary(r, rings[r.Intn(len(rings))])
			if got, want := PointInPolygon(p, poly), ratPointInPolygon(p, poly); got != want {
				t.Fatalf("PointInPolygon(%v, %v) = %v, oracle %v", p, poly, got, want)
			}
		}

		// A second shape against the polygon: a triangle that shares an
		// edge, a line that touches a ring, a point on a ring, or a
		// rectangle with a ring vertex at a corner, on an edge or inside.
		var other Geometry
		ring := rings[r.Intn(len(rings))]
		j := r.Intn(len(ring))
		q0, q1 := ring[j], ring[(j+1)%len(ring)]
		switch r.Intn(4) {
		case 0:
			out := jitter(r, along(q0, q1, 0.5))
			out = Point{out.X + (q0.Y - q1.Y), out.Y + (q1.X - q0.X)}
			first := jitter(r, q1)
			other = &Polygon{Shell: []Point{first, jitter(r, q0), out, first}}
		case 1:
			other = &LineString{Pts: []Point{nearBoundary(r, ring), decimalPoint(r), nearBoundary(r, ring)}}
		case 2:
			other = nearBoundary(r, ring)
		default:
			d := Point{float64(r.Intn(3)) * 0.1, float64(r.Intn(3)) * 0.1}
			other = Envelope{q0.X - d.X, q0.Y - d.Y, q0.X + d.Y, q0.Y + d.X}.ToPolygon()
		}
		if msg := checkIntersectsOracle(poly, other); msg != "" {
			t.Fatalf("polygon %v, other %v: %s", poly, other, msg)
		}
	}

	if floatWrong == 0 {
		t.Error("the plain float determinant never erred: the inputs are not near enough to a degeneracy")
	}
	t.Logf("the plain float determinant erred on %d of 18000 near-collinear triples", floatWrong)
}

// scaledPoints reads a vertex run off a byte string, two bytes per vertex,
// mapped through v·scale + shift in float arithmetic, so that an inexact
// scale puts grid-collinear vertices a rounding off their line.
func scaledPoints(coords []byte, scale, shift float64) []Point {
	pts := make([]Point, len(coords)/2)
	for i := range pts {
		pts[i] = Point{float64(coords[2*i])*scale + shift, float64(coords[2*i+1])*scale + shift}
	}
	return pts
}

// FuzzIntersects fuzzes the general path, and the dispatch, against the
// rational oracle on any two geometries of any kinds. The seed corpus is
// the rectangle kernel's adversarial table, each case against its
// rectangle as a plain polygon, so plain `go test` runs it.
func FuzzIntersects(f *testing.F) {
	for _, c := range rectCases {
		if c.r.IsEmpty() {
			continue
		}
		var a, b []byte
		for _, v := range c.coords {
			a = append(a, 4*v)
		}
		for _, p := range c.r.Corners() {
			b = append(b, byte(4*p.X), byte(4*p.Y))
		}
		f.Add(c.kind, a, byte(2), b, 0.25, 0.0)
		f.Add(c.kind, a, byte(2), b, 0.1, 0.3)
	}
	f.Fuzz(func(t *testing.T, kindA byte, coordsA []byte, kindB byte, coordsB []byte, scale, shift float64) {
		// The oracle's rationals are slow; 32 vertices a side is plenty.
		coordsA, coordsB = coordsA[:min(len(coordsA), 64)], coordsB[:min(len(coordsB), 64)]
		a := kernelGeometry(kindA, scaledPoints(coordsA, scale, shift))
		b := kernelGeometry(kindB, scaledPoints(coordsB, scale, shift))
		if a == nil || b == nil {
			t.Skip("no vertices")
		}
		for _, pts := range [][]Point{scaledPoints(coordsA, scale, shift), scaledPoints(coordsB, scale, shift)} {
			for _, p := range pts {
				if math.IsInf(p.X, 0) || math.IsNaN(p.X) || math.IsInf(p.Y, 0) || math.IsNaN(p.Y) {
					t.Skip("non-finite coordinate")
				}
			}
		}
		if msg := checkIntersectsOracle(a, b); msg != "" {
			t.Errorf("a %v, b %v: %s", a, b, msg)
		}
	})
}
