package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// unitSquare returns a closed 1x1 square shell at (x, y).
func unitSquare(x, y float64) *Polygon {
	return &Polygon{Shell: []Point{
		{x, y}, {x + 1, y}, {x + 1, y + 1}, {x, y + 1}, {x, y},
	}}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		name       string
		a, b, c, d Point
		want       bool
	}{
		{"crossing", Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}, true},
		{"parallel", Point{0, 0}, Point{2, 0}, Point{0, 1}, Point{2, 1}, false},
		{"collinear-overlap", Point{0, 0}, Point{2, 0}, Point{1, 0}, Point{3, 0}, true},
		{"collinear-disjoint", Point{0, 0}, Point{1, 0}, Point{2, 0}, Point{3, 0}, false},
		{"endpoint-touch", Point{0, 0}, Point{1, 1}, Point{1, 1}, Point{2, 0}, true},
		{"t-junction", Point{0, 0}, Point{2, 0}, Point{1, -1}, Point{1, 0}, true},
		{"near-miss", Point{0, 0}, Point{2, 0}, Point{1, 0.0001}, Point{1, 1}, false},
		{"disjoint", Point{0, 0}, Point{1, 0}, Point{5, 5}, Point{6, 6}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := SegmentsIntersect(c.a, c.b, c.c, c.d); got != c.want {
				t.Errorf("SegmentsIntersect = %v, want %v", got, c.want)
			}
			// Symmetric in segment order and in endpoint order.
			if got := SegmentsIntersect(c.c, c.d, c.a, c.b); got != c.want {
				t.Errorf("segment-order symmetry broken")
			}
			if got := SegmentsIntersect(c.b, c.a, c.d, c.c); got != c.want {
				t.Errorf("endpoint-order symmetry broken")
			}
		})
	}
}

func TestPointInPolygon(t *testing.T) {
	square := unitSquare(0, 0)
	donut := &Polygon{
		Shell: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		Holes: [][]Point{{{4, 4}, {6, 4}, {6, 6}, {4, 6}, {4, 4}}},
	}
	cases := []struct {
		name string
		p    Point
		poly *Polygon
		want bool
	}{
		{"center", Point{0.5, 0.5}, square, true},
		{"outside", Point{2, 2}, square, false},
		{"on-edge", Point{1, 0.5}, square, true},
		{"on-vertex", Point{0, 0}, square, true},
		{"in-donut-body", Point{2, 2}, donut, true},
		{"in-hole", Point{5, 5}, donut, false},
		{"on-hole-boundary", Point{4, 5}, donut, true},
		{"far-outside", Point{100, 100}, donut, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := PointInPolygon(c.p, c.poly); got != c.want {
				t.Errorf("PointInPolygon(%+v) = %v, want %v", c.p, got, c.want)
			}
		})
	}
}

func TestIntersectsPairs(t *testing.T) {
	sq := unitSquare(0, 0)
	far := unitSquare(5, 5)
	overlapping := unitSquare(0.5, 0.5)
	containing := &Polygon{Shell: []Point{{-1, -1}, {2, -1}, {2, 2}, {-1, 2}, {-1, -1}}}
	line := &LineString{Pts: []Point{{-1, 0.5}, {2, 0.5}}}
	outsideLine := &LineString{Pts: []Point{{3, 3}, {4, 4}}}
	insideLine := &LineString{Pts: []Point{{0.2, 0.2}, {0.8, 0.8}}}
	donut := &Polygon{
		Shell: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		Holes: [][]Point{{{2, 2}, {8, 2}, {8, 8}, {2, 8}, {2, 2}}},
	}
	// First vertex inside the hole, reaching the material across the hole
	// ring only — as a rectangle and as a general polygon.
	acrossHole := &Polygon{Shell: []Point{{3, 3}, {9, 4}, {3, 5}, {3, 3}}}

	cases := []struct {
		name string
		a, b Geometry
		want bool
	}{
		{"pt-pt-equal", Point{1, 1}, Point{1, 1}, true},
		{"pt-pt-diff", Point{1, 1}, Point{1, 2}, false},
		{"pt-in-poly", Point{0.5, 0.5}, sq, true},
		{"pt-out-poly", Point{3, 3}, sq, false},
		{"pt-on-line", Point{0, 0.5}, line, true},
		{"pt-off-line", Point{0, 0.6}, line, false},
		{"line-crosses-poly", line, sq, true},
		{"line-inside-poly", insideLine, sq, true},
		{"line-outside-poly", outsideLine, sq, false},
		{"poly-poly-overlap", sq, overlapping, true},
		{"poly-poly-disjoint", sq, far, false},
		{"poly-contains-poly", containing, sq, true},
		{"poly-inside-poly", sq, containing, true},
		{"rect-straddles-hole-only", donut, Envelope{3, 3, 9, 5}.ToPolygon(), true},
		{"rect-inside-hole", donut, Envelope{3, 3, 5, 5}.ToPolygon(), false},
		{"poly-straddles-hole-only", donut, acrossHole, true},
		{"poly-inside-hole", donut, &Polygon{Shell: []Point{{3, 3}, {7, 4}, {3, 5}, {3, 3}}}, false},
		{"line-line-cross", line, &LineString{Pts: []Point{{0.5, 0}, {0.5, 1}}}, true},
		{"line-line-miss", line, outsideLine, false},
		{"multipoint-hit", &MultiPoint{Pts: []Point{{9, 9}, {0.5, 0.5}}}, sq, true},
		{"multipoint-miss", &MultiPoint{Pts: []Point{{9, 9}, {8, 8}}}, sq, false},
		{"multipolygon-hit", &MultiPolygon{Polys: []Polygon{*far, *overlapping}}, sq, true},
		{"multiline-hit", &MultiLineString{Lines: []LineString{*outsideLine, *insideLine}}, sq, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Intersects(c.a, c.b); got != c.want {
				t.Errorf("Intersects = %v, want %v", got, c.want)
			}
			if got := Intersects(c.b, c.a); got != c.want {
				t.Errorf("Intersects (swapped) = %v, want %v", got, c.want)
			}
		})
	}
}

func TestIntersectsNil(t *testing.T) {
	if Intersects(nil, Point{0, 0}) || Intersects(Point{0, 0}, nil) || Intersects(nil, nil) {
		t.Error("nil geometry must not intersect anything")
	}
}

func TestPolygonArea(t *testing.T) {
	sq := unitSquare(3, 3)
	if got := sq.Area(); math.Abs(got-1) > 1e-12 {
		t.Errorf("unit square area = %v", got)
	}
	donut := &Polygon{
		Shell: []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}},
		Holes: [][]Point{{{1, 1}, {2, 1}, {2, 2}, {1, 2}, {1, 1}}},
	}
	if got := donut.Area(); math.Abs(got-15) > 1e-12 {
		t.Errorf("donut area = %v, want 15", got)
	}
	// Orientation must not matter.
	rev := &Polygon{Shell: []Point{{0, 0}, {0, 4}, {4, 4}, {4, 0}, {0, 0}}}
	if got := rev.Area(); math.Abs(got-16) > 1e-12 {
		t.Errorf("clockwise square area = %v, want 16", got)
	}
}

func TestGeometryEnvelopes(t *testing.T) {
	mp := &MultiPolygon{Polys: []Polygon{*unitSquare(0, 0), *unitSquare(4, 4)}}
	if mp.Envelope() != (Envelope{0, 0, 5, 5}) {
		t.Errorf("multipolygon envelope = %+v", mp.Envelope())
	}
	if mp.NumPoints() != 10 {
		t.Errorf("multipolygon NumPoints = %d, want 10", mp.NumPoints())
	}
	ml := &MultiLineString{Lines: []LineString{
		{Pts: []Point{{0, 0}, {1, 1}}},
		{Pts: []Point{{-2, 3}, {0, 0}}},
	}}
	if ml.Envelope() != (Envelope{-2, 0, 1, 3}) {
		t.Errorf("multiline envelope = %+v", ml.Envelope())
	}
	if ml.NumPoints() != 4 {
		t.Errorf("multiline NumPoints = %d", ml.NumPoints())
	}
	mpt := &MultiPoint{Pts: []Point{{1, 2}, {3, -1}}}
	if mpt.Envelope() != (Envelope{1, -1, 3, 2}) {
		t.Errorf("multipoint envelope = %+v", mpt.Envelope())
	}
}

// Property: a point sampled inside a convex polygon via barycentric mixing
// is always reported inside.
func TestPointInPolygonPropertyConvex(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random triangle with non-zero area.
		a := Point{r.Float64() * 10, r.Float64() * 10}
		b := Point{a.X + 1 + r.Float64()*5, a.Y + r.Float64()}
		c := Point{a.X + r.Float64(), a.Y + 1 + r.Float64()*5}
		tri := &Polygon{Shell: []Point{a, b, c, a}}
		// Barycentric interior point.
		u, v := r.Float64(), r.Float64()
		if u+v > 1 {
			u, v = 1-u, 1-v
		}
		w := 1 - u - v
		p := Point{u*a.X + v*b.X + w*c.X, u*a.Y + v*b.Y + w*c.Y}
		return PointInPolygon(p, tri)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("interior point not detected: %v", err)
	}
}

// Property: Intersects agrees between a polygon and its envelope-polygon for
// axis-aligned rectangles (where MBR == geometry).
func TestRectangleIntersectsMatchesEnvelope(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(23))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e1, e2 := randomEnvelope(r), randomEnvelope(r)
		p1, p2 := e1.ToPolygon(), e2.ToPolygon()
		return Intersects(p1, p2) == e1.Intersects(e2)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("rectangle intersects disagrees with envelope algebra: %v", err)
	}
}
