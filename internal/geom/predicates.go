package geom

// This file implements the "intersects" spatial predicate for every pair of
// supported geometry types. Intersects is the predicate θ of the paper's
// spatial join definition (§2): it returns true iff the two shapes share any
// portion of space. The refine phase of filter-and-refine calls these exact
// routines after the MBR filter has discarded the cheap negatives.
//
// There are two kernels, and each is pinned to the plain all-pairs
// definition by a differential test (kernels_test.go):
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
//   - The rectangle kernel (RectProbe) answers geometry × axis-aligned
//     rectangle. Invariant: it returns what the general path returns on the
//     rectangle's polygon. Its shortcuts are exact consequences of the
//     general path's own arithmetic on axis-aligned edges, not
//     approximations of it, and the segments it cannot settle by comparison
//     go through the same SegmentsIntersect against the same four edges.
//     AsRect recognizes the rectangle once per probe, and the kernel takes
//     the candidate's envelope from its caller — the envelope an R-tree
//     already holds — so a candidate whose envelope the rectangle contains
//     is accepted without touching its vertices or its envelope cache.
//
// Neither kernel stores anything per geometry or allocates.

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
// candidate, the distance to the first boundary crossing for a straddling
// one — and only a disjoint or enclosing polygon is walked in full.
func (p RectProbe) Intersects(g Geometry, env Envelope) bool {
	r, shell := p.r, p.shell
	if !env.Intersects(r) {
		return false
	}
	if r.Contains(env) {
		return true
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
func pointInRing(p Point, ring []Point) bool {
	inside := false
	n := len(ring)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		yi, yj := ring[i].Y, ring[j].Y
		if (yi > p.Y) != (yj > p.Y) {
			xCross := ring[j].X + (p.Y-yj)/(yi-yj)*(ring[i].X-ring[j].X)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

func pointOnRing(p Point, ring []Point) bool { return pointOnLine(p, ring) }

// pointOnLine reports whether p lies on any segment of the polyline.
func pointOnLine(p Point, pts []Point) bool {
	for i := 1; i < len(pts); i++ {
		if onSegment(pts[i-1], pts[i], p) {
			return true
		}
	}
	return false
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

// orientation returns >0 if (a,b,c) turn counter-clockwise, <0 clockwise,
// 0 if collinear.
func orientation(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether p lies on segment ab. The bounding-box
// comparisons run first: they settle all but a few segments of a ring
// without the orientation product.
func onSegment(a, b, p Point) bool {
	return min(a.X, b.X) <= p.X && p.X <= max(a.X, b.X) &&
		min(a.Y, b.Y) <= p.Y && p.Y <= max(a.Y, b.Y) &&
		orientation(a, b, p) == 0
}

// SegmentsIntersect reports whether closed segments p1p2 and p3p4 share a
// point, including collinear overlap and endpoint touching.
func SegmentsIntersect(p1, p2, p3, p4 Point) bool {
	d1 := orientation(p3, p4, p1)
	d2 := orientation(p3, p4, p2)
	d3 := orientation(p1, p2, p3)
	d4 := orientation(p1, p2, p4)

	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(p3, p4, p1)) ||
		(d2 == 0 && onSegment(p3, p4, p2)) ||
		(d3 == 0 && onSegment(p1, p2, p3)) ||
		(d4 == 0 && onSegment(p1, p2, p4))
}
