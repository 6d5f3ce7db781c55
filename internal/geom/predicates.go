package geom

import (
	"math"
	"math/big"
)

// This file implements the "intersects" spatial predicate for every pair of
// supported geometry types. Intersects is the predicate θ of the paper's
// spatial join definition (§2): it returns true iff the two shapes share any
// portion of space. The refine phase of filter-and-refine calls these exact
// routines after the MBR filter has discarded the cheap negatives.
//
// The kernel invariant: RectProbe returns the general path's answer, and
// the general path is exact. Each kernel is pinned to its definition by a
// differential test (kernels_test.go), and the general path to a rational
// oracle (oracle_test.go):
//
//   - The general path crosses every ring of one operand against every ring
//     of the other, segment pair by segment pair, with a per-pair envelope
//     pre-test (polylinesCross), then settles containment with
//     PointInPolygon. polylinesCross first clips both vertex runs to the
//     window W = env(a) ∩ env(b). Invariant: a pair whose segment envelopes
//     meet has both envelopes meeting W, so clipping drops only pairs the
//     pre-test would have dropped — the set of pairs handed to
//     SegmentsIntersect, and therefore the boolean, is that of the naive
//     double loop.
//   - Its arithmetic is exact for every finite input: the only arithmetic
//     is the sign of the orientation determinant, which a float filter
//     decides when it can prove the sign, and an exact fallback decides
//     otherwise (orientation). Every other step is a comparison.
//   - The rectangle kernel (RectProbe) answers geometry × axis-aligned
//     rectangle. Its shortcuts are exact consequences of the general
//     path's answer, not approximations of it, and the segments it cannot
//     settle by comparison go through the same SegmentsIntersect against
//     the same four edges. AsRect recognizes the rectangle once per probe,
//     and the kernel takes the candidate's envelope from its caller — the
//     envelope an R-tree already holds — so a candidate whose envelope the
//     rectangle contains, or a line or polygon whose envelope spans it in
//     one axis, is accepted without touching its vertices.
//
// Non-finite coordinates, which WKB can carry, keep the float behaviour:
// orientation returns the plain float determinant for them, NaN included,
// and the invariant is not claimed. Neither kernel stores anything per
// geometry, and neither allocates unless orientExact meets a coordinate
// difference outside [2^-450, 2^450] (its math/big stage).

// Intersects reports whether geometries a and b share at least one point.
// When either operand is an axis-aligned rectangle polygon (a range query's
// Envelope.ToPolygon(), a rectangular join input) the rectangle kernel
// answers; every other pair takes the general path.
func Intersects(a, b Geometry) bool {
	if a == nil || b == nil {
		return false
	}
	if p, ok := AsRect(b); ok {
		return p.Intersects(a, a.Envelope())
	}
	if p, ok := AsRect(a); ok {
		return p.Intersects(b, b.Envelope())
	}
	return intersectsGeneral(a, b)
}

// intersectsGeneral is the all-types path with no rectangle dispatch (it
// recurses into itself, so the differential tests can hold the rectangle
// kernel against it). An envelope pre-test short-circuits disjoint pairs,
// mirroring the filter step GEOS applies internally.
func intersectsGeneral(a, b Geometry) bool {
	if !a.Envelope().Intersects(b.Envelope()) {
		return false
	}
	// Distribute multi-geometries over their components first, so the simple
	// pairwise cases below never see a Multi* operand.
	if hit, ok := distribute(a, b); ok {
		return hit
	}
	if hit, ok := distribute(b, a); ok {
		return hit
	}
	// Normalize so the switch below only handles ordered simple type pairs.
	if a.GeomType() > b.GeomType() {
		a, b = b, a
	}
	switch g := a.(type) {
	case Point:
		return pointIntersects(g, b)
	case *LineString:
		return lineIntersects(g, b)
	case *Polygon:
		other, ok := b.(*Polygon)
		return ok && polygonsIntersect(g, other)
	default:
		return false
	}
}

// distribute expands a Multi* left operand into per-component general-path
// calls. The second result reports whether a was a multi-geometry.
func distribute(a, b Geometry) (hit, ok bool) {
	switch g := a.(type) {
	case *MultiPoint:
		for _, p := range g.Pts {
			if intersectsGeneral(p, b) {
				return true, true
			}
		}
		return false, true
	case *MultiLineString:
		for i := range g.Lines {
			if intersectsGeneral(&g.Lines[i], b) {
				return true, true
			}
		}
		return false, true
	case *MultiPolygon:
		for i := range g.Polys {
			if intersectsGeneral(&g.Polys[i], b) {
				return true, true
			}
		}
		return false, true
	default:
		return false, false
	}
}

// RectProbe is an axis-aligned rectangle polygon recognized once (AsRect),
// ready to refine any number of candidates against it.
type RectProbe struct {
	r     Envelope  // the rectangle
	shell *[5]Point // its boundary as the general path would walk it
}

// AsRect reports whether g is a non-degenerate axis-aligned rectangle
// polygon — a hole-free closed 5-point shell whose vertices are the four
// corners of its own envelope in cyclic order, either orientation, any
// starting corner — and returns it as a probe. O(1).
func AsRect(g Geometry) (RectProbe, bool) {
	p, isPoly := g.(*Polygon)
	if !isPoly || len(p.Holes) != 0 || len(p.Shell) != 5 || p.Shell[0] != p.Shell[4] {
		return RectProbe{}, false
	}
	s := (*[5]Point)(p.Shell)
	// s[0] and s[2] are opposite corners; s[1] and s[3] must be the other
	// two, so that the edges alternate between the axes.
	if s[0].X == s[2].X || s[0].Y == s[2].Y {
		return RectProbe{}, false
	}
	xFirst := s[1].Y == s[0].Y && s[1].X == s[2].X && s[3].Y == s[2].Y && s[3].X == s[0].X
	yFirst := s[1].X == s[0].X && s[1].Y == s[2].Y && s[3].X == s[2].X && s[3].Y == s[0].Y
	if !xFirst && !yFirst {
		return RectProbe{}, false
	}
	return RectProbe{r: segBox(s[0], s[2]), shell: s}, true
}

// IntersectsRect reports whether g shares at least one point with the
// closed axis-aligned rectangle r. It is the exact refine step of a range
// query: the answer is that of Intersects(g, r.ToPolygon()), reached
// without building the polygon and, for most candidates, without visiting
// every vertex. A zero-width, zero-height or empty r is not a rectangle
// polygon; the general path decides it.
func IntersectsRect(g Geometry, r Envelope) bool {
	if g == nil {
		return false
	}
	if !(r.MinX < r.MaxX && r.MinY < r.MaxY) {
		return intersectsGeneral(g, r.ToPolygon())
	}
	c := r.Corners()
	shell := [5]Point{c[0], c[1], c[2], c[3], c[0]}
	return RectProbe{r: r, shell: &shell}.Intersects(g, g.Envelope())
}

// Intersects is the rectangle kernel: whether g, whose envelope is env,
// shares a point with the rectangle. env must be g.Envelope() bitwise — a
// caller that holds it already (a tree item's stored envelope) passes it
// instead of having the kernel reload it; for that env the answer is
// Intersects(g, the rectangle's polygon). Every step is the general path's
// own outcome, reached cheaply:
//
//   - the rectangle contains env: g's first vertex lies in it, which the
//     general path accepts (a point is in a rectangle polygon iff it is in
//     the rectangle). Nothing of g but env is read.
//   - g is a line or a polygon whose env lies within the rectangle's x-range
//     or within its y-range: its line, or its shell, is one polyline through
//     every vertex, so it passes through every height (width) of env, one
//     of which env shares with the rectangle, and there it is inside. So it
//     has a point in the rectangle, and the exact general path finds a
//     vertex inside or a segment that meets an edge. Nothing of g but its
//     type and env is read. Multi-geometries recurse per component.
//   - a vertex on the rectangle's boundary: its segment meets the edge it
//     lies on — orientation against an axis-aligned edge is exactly zero
//     there.
//   - a segment whose endpoints' Cohen–Sutherland outcodes share a bit, or
//     are both strictly inside the rectangle: its envelope misses all four
//     edge envelopes, so the general path's pre-test skips it.
//   - what is left goes through SegmentsIntersect against the four edges,
//     and containment is settled by PointInPolygon on the shell's first
//     corner, as in the general path.
//
// So the cost follows how soon the answer is known — O(1) for a contained
// or spanning candidate, the distance to the first boundary crossing for
// another straddling one — and only a disjoint or enclosing polygon is
// walked in full.
func (p RectProbe) Intersects(g Geometry, env Envelope) bool {
	r, shell := p.r, p.shell
	if !env.Intersects(r) {
		return false
	}
	if r.Contains(env) {
		return true
	}
	if (r.MinX <= env.MinX && env.MaxX <= r.MaxX) || (r.MinY <= env.MinY && env.MaxY <= r.MaxY) {
		switch g.(type) {
		case *LineString, *Polygon:
			return true
		}
	}
	// A Point never gets this far: its envelope is itself.
	switch g := g.(type) {
	case *LineString:
		return len(g.Pts) > 0 &&
			(r.ContainsPoint(g.Pts[0].X, g.Pts[0].Y) || runMeetsRect(g.Pts, r, shell))
	case *Polygon:
		if len(g.Shell) > 0 && r.ContainsPoint(g.Shell[0].X, g.Shell[0].Y) {
			return true
		}
		if runMeetsRect(g.Shell, r, shell) {
			return true
		}
		for _, h := range g.Holes {
			if runMeetsRect(h, r, shell) {
				return true
			}
		}
		return PointInPolygon(shell[0], g)
	case *MultiPoint:
		for _, pt := range g.Pts {
			if r.ContainsPoint(pt.X, pt.Y) {
				return true
			}
		}
	case *MultiLineString:
		for i := range g.Lines {
			if p.Intersects(&g.Lines[i], g.Lines[i].Envelope()) {
				return true
			}
		}
	case *MultiPolygon:
		for i := range g.Polys {
			if p.Intersects(&g.Polys[i], g.Polys[i].Envelope()) {
				return true
			}
		}
	}
	return false
}

// Cohen–Sutherland outcode bits: which side of r a vertex lies strictly
// beyond. Zero means inside or on the boundary.
const (
	outLeft = 1 << iota
	outRight
	outBelow
	outAbove
)

// runMeetsRect reports whether any segment of the vertex run pts shares a
// point with the boundary of r — polylinesCross(pts, shell[:]) — with one
// outcode per vertex deciding, by comparison alone, all but the segments
// that actually pass by the rectangle.
func runMeetsRect(pts []Point, r Envelope, shell *[5]Point) bool {
	if len(pts) < 2 {
		return false
	}
	prev := 0
	for i, v := range pts {
		code := 0
		if v.X < r.MinX {
			code = outLeft
		} else if v.X > r.MaxX {
			code = outRight
		}
		if v.Y < r.MinY {
			code |= outBelow
		} else if v.Y > r.MaxY {
			code |= outAbove
		}
		if code == 0 && (v.X == r.MinX || v.X == r.MaxX || v.Y == r.MinY || v.Y == r.MaxY) {
			return true
		}
		// Both codes zero here means both endpoints strictly inside.
		if i > 0 && prev&code == 0 && prev|code != 0 && segmentMeetsRing(pts[i-1], v, shell) {
			return true
		}
		prev = code
	}
	return false
}

// segmentMeetsRing is the general path's inner loop for one segment
// against the rectangle's four edges.
func segmentMeetsRing(p, q Point, shell *[5]Point) bool {
	box := segBox(p, q)
	for j := 1; j < len(shell); j++ {
		if boxesMeet(box, segBox(shell[j-1], shell[j])) && SegmentsIntersect(p, q, shell[j-1], shell[j]) {
			return true
		}
	}
	return false
}

// pointIntersects handles point vs. simple type with GeomType >= TypePoint.
func pointIntersects(p Point, b Geometry) bool {
	switch g := b.(type) {
	case Point:
		return p == g
	case *LineString:
		return pointOnLine(p, g.Pts)
	case *Polygon:
		return PointInPolygon(p, g)
	default:
		return false
	}
}

// lineIntersects handles line vs. {line, polygon}.
func lineIntersects(l *LineString, b Geometry) bool {
	switch g := b.(type) {
	case *LineString:
		return runsCross(l.Pts, l.Envelope(), g.Pts, g.Envelope())
	case *Polygon:
		return linePolygonIntersects(l, g)
	default:
		return false
	}
}

// PointInPolygon reports whether p lies inside the polygon or on its
// boundary, using the even-odd ray crossing rule with an explicit boundary
// test (boundary points count as intersecting under OGC semantics).
func PointInPolygon(p Point, poly *Polygon) bool {
	if !poly.Envelope().ContainsPoint(p.X, p.Y) {
		return false
	}
	if pointOnRing(p, poly.Shell) {
		return true
	}
	if !pointInRing(p, poly.Shell) {
		return false
	}
	for _, h := range poly.Holes {
		if pointOnRing(p, h) {
			return true // hole boundary belongs to the polygon
		}
		if pointInRing(p, h) {
			return false // strictly inside a hole
		}
	}
	return true
}

// pointInRing is the classic even-odd crossing count (boundary excluded).
// An edge that crosses p's height toggles the count when p lies left of the
// crossing, that is on the upward side of the edge (j, i): its orientation
// sign decides that exactly, with no division.
func pointInRing(p Point, ring []Point) bool {
	inside := false
	n := len(ring)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		yi, yj := ring[i].Y, ring[j].Y
		if (yi > p.Y) != (yj > p.Y) {
			if o := orientation(ring[j], ring[i], p); o != 0 && (o > 0) == (yi > yj) {
				inside = !inside
			}
		}
	}
	return inside
}

func pointOnRing(p Point, ring []Point) bool { return pointOnLine(p, ring) }

// pointOnLine reports whether p lies on any segment of the polyline. The
// bounding-box comparisons run first: they settle all but a few segments
// of a ring without the orientation product.
func pointOnLine(p Point, pts []Point) bool {
	for i := 1; i < len(pts); i++ {
		if inSegBox(pts[i-1], pts[i], p) && orientation(pts[i-1], pts[i], p) == 0 {
			return true
		}
	}
	return false
}

// inSegBox reports whether p lies in the closed bounding box of segment ab.
func inSegBox(a, b, p Point) bool {
	return min(a.X, b.X) <= p.X && p.X <= max(a.X, b.X) &&
		min(a.Y, b.Y) <= p.Y && p.Y <= max(a.Y, b.Y)
}

// segBox is the closed bounding box of segment pq.
func segBox(p, q Point) Envelope {
	return Envelope{min(p.X, q.X), min(p.Y, q.Y), max(p.X, q.X), max(p.Y, q.Y)}
}

// boxesMeet is Envelope.Intersects for boxes known to be non-empty.
func boxesMeet(a, b Envelope) bool {
	return a.MinX <= b.MaxX && b.MinX <= a.MaxX && a.MinY <= b.MaxY && b.MinY <= a.MaxY
}

// polylinesCross reports whether any segment of a intersects any segment of
// b: SegmentsIntersect over every pair whose segment envelopes meet. Such a
// pair meets inside W = env(a) ∩ env(b), so both runs are first clipped to
// the segments that meet W — n + m comparisons that spare a small polygon
// against a large one the n·m pre-tests. The longer clipped run drives the
// outer loop, where a segment missing W skips its whole inner loop.
func polylinesCross(a, b []Point) bool {
	return runsCross(a, EnvelopeOf(a), b, EnvelopeOf(b))
}

// runsCross is polylinesCross for a caller that holds the runs' envelopes
// already: ea and eb must be EnvelopeOf(a) and EnvelopeOf(b) bitwise, as a
// shell's or a line's cached Envelope() is by the PrimeEnvelope contract.
func runsCross(a []Point, ea Envelope, b []Point, eb Envelope) bool {
	w := ea.Intersection(eb)
	if w.IsEmpty() {
		return false
	}
	a, b = clipRun(a, w), clipRun(b, w)
	if len(a) < len(b) {
		a, b = b, a // SegmentsIntersect is symmetric in its two segments
	}
	for i := 1; i < len(a); i++ {
		box := segBox(a[i-1], a[i])
		if !boxesMeet(box, w) {
			continue
		}
		for j := 1; j < len(b); j++ {
			if boxesMeet(box, segBox(b[j-1], b[j])) && SegmentsIntersect(a[i-1], a[i], b[j-1], b[j]) {
				return true
			}
		}
	}
	return false
}

// clipRun trims from both ends of a vertex run the segments whose envelope
// misses w, returning the sub-run from the first to the last segment that
// meets it (nil when none does).
func clipRun(pts []Point, w Envelope) []Point {
	lo, hi := 1, len(pts)-1
	for lo <= hi && !boxesMeet(segBox(pts[lo-1], pts[lo]), w) {
		lo++
	}
	for hi > lo && !boxesMeet(segBox(pts[hi-1], pts[hi]), w) {
		hi--
	}
	if lo > hi {
		return nil
	}
	return pts[lo-1 : hi+1]
}

// linePolygonIntersects: a line meets a polygon if an endpoint is inside it
// or any segment crosses the shell or a hole ring.
func linePolygonIntersects(l *LineString, poly *Polygon) bool {
	if len(l.Pts) == 0 {
		return false
	}
	return PointInPolygon(l.Pts[0], poly) || ringsCross(l.Pts, l.Envelope(), poly)
}

// polygonsIntersect: some ring of one crosses some ring of the other, or
// one polygon contains the other. Holes count: a polygon whose first vertex
// sits inside the other's hole can still reach its material across the hole
// ring without ever meeting the shell.
func polygonsIntersect(a, b *Polygon) bool {
	if ringsCross(a.Shell, a.Envelope(), b) {
		return true
	}
	for _, h := range a.Holes {
		if ringsCross(h, EnvelopeOf(h), b) {
			return true
		}
	}
	// No boundary crossing: either disjoint or one inside the other.
	if len(b.Shell) > 0 && PointInPolygon(b.Shell[0], a) {
		return true
	}
	if len(a.Shell) > 0 && PointInPolygon(a.Shell[0], b) {
		return true
	}
	return false
}

// ringsCross reports whether the vertex run, whose envelope is env, crosses
// the shell or a hole ring of b. The shell's envelope is b's cached one;
// a hole's is folded here.
func ringsCross(run []Point, env Envelope, b *Polygon) bool {
	if runsCross(run, env, b.Shell, b.Envelope()) {
		return true
	}
	for _, h := range b.Holes {
		if runsCross(run, env, h, EnvelopeOf(h)) {
			return true
		}
	}
	return false
}

// SegmentsIntersect reports whether closed segments p1p2 and p3p4 share a
// point, including collinear overlap and endpoint touching. An orientation
// the float filter settles is not zero: p1 and p2 settled on one side of
// p3p4 miss it, and four settled signs leave only a proper crossing. Any
// other case is decided on the exact signs.
func SegmentsIntersect(p1, p2, p3, p4 Point) bool {
	d1, ok1 := orient(p3, p4, p1)
	d2, ok2 := orient(p3, p4, p2)
	if ok1 && ok2 {
		if (d1 > 0) == (d2 > 0) {
			return false
		}
		d3, ok3 := orient(p1, p2, p3)
		d4, ok4 := orient(p1, p2, p4)
		if ok3 && ok4 {
			return (d3 > 0) != (d4 > 0)
		}
	}
	return segmentsIntersectExact(p1, p2, p3, p4)
}

// segmentsIntersectExact is SegmentsIntersect on the exact orientation signs.
func segmentsIntersectExact(p1, p2, p3, p4 Point) bool {
	d1 := orientation(p3, p4, p1)
	d2 := orientation(p3, p4, p2)
	d3 := orientation(p1, p2, p3)
	d4 := orientation(p1, p2, p4)

	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && inSegBox(p3, p4, p1)) ||
		(d2 == 0 && inSegBox(p3, p4, p2)) ||
		(d3 == 0 && inSegBox(p1, p2, p3)) ||
		(d4 == 0 && inSegBox(p1, p2, p4))
}

// orientation returns >0 if (a,b,c) turn counter-clockwise, <0 clockwise,
// 0 if collinear — the sign of the determinant of b-a and c-a, exact for
// finite coordinates. The float filter (orient) settles almost every call;
// the rest go to orientExact.
func orientation(a, b, c Point) float64 {
	det, ok := orient(a, b, c)
	if !ok {
		det = orientExact(a, b, c, det)
	}
	return det
}

const (
	// ccwErrBoundA is Shewchuk's static forward error bound for the float
	// determinant ("Adaptive Precision Floating-Point Arithmetic and Fast
	// Robust Geometric Predicates", 1997): with ε = 2^-53 and no underflow,
	// |det - exact| <= ccwErrBoundA·(|l| + |r|).
	ccwErrBoundA = (3 + 16*0x1p-53) * 0x1p-53
	// sqErrBound is the bound squared, for orient's test without absolute
	// values: (|l| + |r|)² <= 2(l² + r²), and the factor 1 + 2^-40 covers
	// the rounding of the squares, their sum and the products.
	sqErrBound = 2 * ccwErrBoundA * ccwErrBoundA * (1 + 0x1p-40)
	// sqDetFloor is the smallest det² orient accepts. Below it a product
	// may have lost bits to underflow, which the relative bound does not
	// cover; above it an underflowed product's absolute error is far
	// inside the bound's slack.
	sqDetFloor = 0x1p-1000
)

// orient is orientation's float filter, kept small enough to inline: the
// float determinant l - r of (a, b, c), and whether its sign is certain.
// It is certain when det² exceeds the squared error bound — as it does for
// products of opposite signs, whose difference cannot cancel, unless they
// are tiny — and sqDetFloor. A zero, an overflow and a NaN are never
// certain.
func orient(a, b, c Point) (det float64, ok bool) {
	l := (b.X - a.X) * (c.Y - a.Y)
	r := (b.Y - a.Y) * (c.X - a.X)
	det = l - r
	return det, det*det > sqErrBound*(l*l+r*r)+sqDetFloor
}

// orientExact returns a value with the exact sign of the orientation
// determinant of (a, b, c), for a call the filter could not settle; det is
// the filter's float determinant, returned as it is when a coordinate is
// not finite. It allocates nothing unless a coordinate difference, or its
// rounding error, is nonzero and outside [2^-450, 2^450]; there it falls
// back to math/big.
func orientExact(a, b, c Point, det float64) float64 {
	for _, v := range [...]float64{a.X, a.Y, b.X, b.Y, c.X, c.Y} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return det
		}
	}
	// Each difference is exactly hi + lo (two-sum), so the determinant is
	// (bx+bxl)(cy+cyl) - (by+byl)(cx+cxl): eight products of two floats,
	// each exactly two floats (two-product by FMA), summed exactly into one
	// expansion whose largest component carries the sign.
	bx, bxl := twoSum(b.X, -a.X)
	by, byl := twoSum(b.Y, -a.Y)
	cx, cxl := twoSum(c.X, -a.X)
	cy, cyl := twoSum(c.Y, -a.Y)
	terms := [...][2]float64{
		{bx, cy}, {bx, cyl}, {bxl, cy}, {bxl, cyl},
		{-by, cx}, {-by, cxl}, {-byl, cx}, {-byl, cxl},
	}
	for _, t := range terms {
		for _, v := range t {
			// Products of these stay within [2^-900, 2^900]: no product or
			// sum below can overflow or lose bits to underflow.
			if v != 0 && !(math.Abs(v) >= 0x1p-450 && math.Abs(v) <= 0x1p450) {
				return orientBig(a, b, c)
			}
		}
	}
	var buf [2 * len(terms)]float64
	e := buf[:0]
	for _, t := range terms {
		if t[0] != 0 && t[1] != 0 {
			p := t[0] * t[1]
			e = grow(grow(e, math.FMA(t[0], t[1], -p)), p)
		}
	}
	if len(e) == 0 {
		return 0
	}
	return e[len(e)-1]
}

// twoSum returns s = fl(a+b) and the rounding error e, so that s + e is
// a + b exactly (Knuth), barring overflow.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	e = (a - (s - bv)) + (b - bv)
	return s, e
}

// grow adds x to the expansion e exactly. An expansion is a sum of
// nonoverlapping floats in increasing magnitude, so its sign is its last
// component's; grow keeps that form and drops zero components
// (Shewchuk's Grow-Expansion). e's backing array must have room for one
// more component.
func grow(e []float64, x float64) []float64 {
	if x == 0 {
		return e
	}
	n := 0
	for _, c := range e {
		var h float64
		x, h = twoSum(x, c)
		if h != 0 {
			e[n] = h
			n++
		}
	}
	if x == 0 {
		return e[:n]
	}
	return append(e[:n], x)
}

// orientBig is orientExact for coordinates whose differences or products
// leave the range where the float expansion is exact.
func orientBig(a, b, c Point) float64 {
	diff := func(u, v float64) *big.Rat {
		d := new(big.Rat).SetFloat64(u)
		return d.Sub(d, new(big.Rat).SetFloat64(v))
	}
	l := new(big.Rat).Mul(diff(b.X, a.X), diff(c.Y, a.Y))
	r := new(big.Rat).Mul(diff(b.Y, a.Y), diff(c.X, a.X))
	return float64(l.Cmp(r))
}
