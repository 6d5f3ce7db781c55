package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The two refine kernels are held against the plain definitions here:
// IntersectsRect against the general path on the rectangle's polygon
// (intersectsGeneral never dispatches, so the kernel is not compared with
// itself), and the window-clipped polylinesCross against the naive
// all-pairs loop below.

// naivePolylinesCross is the reference: SegmentsIntersect over every
// segment pair whose envelopes meet, no clipping.
func naivePolylinesCross(a, b []Point) bool {
	for i := 1; i < len(a); i++ {
		ea := EnvelopeOf(a[i-1 : i+1])
		for j := 1; j < len(b); j++ {
			if ea.Intersects(EnvelopeOf(b[j-1:j+1])) && SegmentsIntersect(a[i-1], a[i], b[j-1], b[j]) {
				return true
			}
		}
	}
	return false
}

// kernelKinds is how many geometry shapes kernelGeometry builds.
const kernelKinds = 7

// kernelGeometry builds a geometry of every supported type from a flat
// vertex run, so that the fuzzer, the seed corpus and the random sweep
// share one construction. Rings are closed here; a run too short for the
// kind yields nil.
func kernelGeometry(kind byte, pts []Point) Geometry {
	if len(pts) == 0 {
		return nil
	}
	closed := func(p []Point) []Point {
		if len(p) == 0 {
			return nil
		}
		return append(append([]Point(nil), p...), p[0])
	}
	half := len(pts) / 2
	switch kind % kernelKinds {
	case 0:
		return pts[0]
	case 1:
		return &LineString{Pts: pts}
	case 2:
		return &Polygon{Shell: closed(pts)}
	case 3:
		return &MultiPoint{Pts: pts}
	case 4:
		return &MultiLineString{Lines: []LineString{{Pts: pts[:half]}, {Pts: pts[half:]}}}
	case 5:
		return &MultiPolygon{Polys: []Polygon{{Shell: closed(pts[:half])}, {Shell: closed(pts[half:])}}}
	default: // polygon with one hole: first half shell, second half hole
		return &Polygon{Shell: closed(pts[:half]), Holes: [][]Point{closed(pts[half:])}}
	}
}

// bytePoints reads a vertex run off a byte string, two bytes per vertex on
// the integer grid — coarse on purpose, so that shared vertices, collinear
// edges and vertices on a rectangle's boundary are the common case.
func bytePoints(coords []byte) []Point {
	pts := make([]Point, len(coords)/2)
	for i := range pts {
		pts[i] = Point{float64(coords[2*i]), float64(coords[2*i+1])}
	}
	return pts
}

// rectCase is one adversarial geometry × rectangle input, in the fuzzer's
// own encoding (kind, grid vertices, rectangle).
type rectCase struct {
	name   string
	kind   byte
	coords []byte
	r      Envelope
}

// spiral is a thin rectangular spiral arm whose envelope covers [0,12]² while
// its material hugs the outline: rectangles in the middle overlap the
// envelope only.
var spiral = []byte{0, 0, 12, 0, 12, 12, 0, 12, 0, 3, 1, 3, 1, 11, 11, 11, 11, 1, 0, 1}

var rectCases = []rectCase{
	{"shared-vertex", 2, []byte{0, 0, 4, 0, 4, 4, 0, 4}, Envelope{4, 4, 8, 8}},
	{"edge-on-edge-collinear", 2, []byte{0, 0, 4, 0, 4, 4, 0, 4}, Envelope{4, 1, 8, 3}},
	{"edge-on-edge-partial", 2, []byte{0, 0, 4, 0, 4, 4, 0, 4}, Envelope{2, 4, 9, 6}},
	{"corner-touches-vertex", 2, []byte{5, 0, 10, 5, 5, 10, 0, 5}, Envelope{10, 5, 12, 7}},
	{"corner-touches-edge", 2, []byte{5, 0, 10, 5, 5, 10, 0, 5}, Envelope{7.5, 7.5, 9, 9}},
	{"corner-misses-edge", 2, []byte{5, 0, 10, 5, 5, 10, 0, 5}, Envelope{7.75, 7.5, 9, 9}},
	{"rect-inside-polygon", 2, []byte{0, 0, 10, 0, 10, 10, 0, 10}, Envelope{3, 3, 6, 6}},
	{"polygon-inside-rect", 2, []byte{3, 3, 6, 3, 6, 6, 3, 6}, Envelope{0, 0, 10, 10}},
	{"polygon-equals-rect", 2, []byte{3, 3, 6, 3, 6, 6, 3, 6}, Envelope{3, 3, 6, 6}},
	{"rect-inside-hole", 6, []byte{0, 0, 10, 0, 10, 10, 0, 10, 2, 2, 8, 2, 8, 8, 2, 8}, Envelope{3, 3, 5, 5}},
	{"rect-straddles-hole-only", 6, []byte{0, 0, 10, 0, 10, 10, 0, 10, 2, 2, 8, 2, 8, 8, 2, 8}, Envelope{3, 3, 9, 5}},
	{"rect-touches-hole-ring", 6, []byte{0, 0, 10, 0, 10, 10, 0, 10, 2, 2, 8, 2, 8, 8, 2, 8}, Envelope{3, 3, 8, 5}},
	{"rect-covers-hole", 6, []byte{0, 0, 10, 0, 10, 10, 0, 10, 4, 4, 6, 4, 6, 6, 4, 6}, Envelope{3, 3, 7, 7}},
	// Invalid on purpose: a hole outside its shell, inside the rectangle and
	// touching its boundary from within, is still a ring the general path
	// crosses.
	{"stray-hole-touches-from-inside", 6, []byte{0, 0, 20, 0, 0, 20, 12, 14, 14, 13, 14, 15}, Envelope{12, 12, 18, 18}},
	{"stray-hole-strictly-inside", 6, []byte{0, 0, 20, 0, 0, 20, 13, 14, 14, 13, 14, 15}, Envelope{12, 12, 18, 18}},
	{"spiral-disjoint", 2, spiral, Envelope{4, 4, 8, 8}},
	{"spiral-grazed", 2, spiral, Envelope{4, 4, 8, 11}},
	{"spiral-between-arms", 2, spiral, Envelope{0.25, 1.25, 0.75, 2.75}},
	{"spiral-line-disjoint", 1, spiral, Envelope{4, 4, 8, 8}},
	{"line-passes-through", 1, []byte{0, 5, 20, 5}, Envelope{8, 2, 12, 8}},
	{"line-cuts-corner", 1, []byte{0, 4, 4, 0}, Envelope{2, 2, 9, 9}},
	{"line-passes-corner", 1, []byte{0, 3, 3, 0}, Envelope{2, 2, 9, 9}},
	{"line-ends-on-edge", 1, []byte{0, 5, 8, 5}, Envelope{8, 2, 12, 8}},
	{"line-along-edge", 1, []byte{0, 2, 20, 2}, Envelope{8, 2, 12, 8}},
	{"line-interior-vertex-only", 1, []byte{0, 0, 10, 5, 20, 0}, Envelope{9, 4, 11, 6}},
	{"point-on-corner", 0, []byte{8, 2}, Envelope{8, 2, 12, 8}},
	{"point-outside", 0, []byte{7, 2}, Envelope{8, 2, 12, 8}},
	{"multipoint-one-inside", 3, []byte{0, 0, 9, 3, 20, 20}, Envelope{8, 2, 12, 8}},
	{"multiline-second-hits", 4, []byte{0, 0, 1, 1, 0, 5, 20, 5}, Envelope{8, 2, 12, 8}},
	{"multipolygon-second-hits", 5, []byte{0, 0, 1, 0, 1, 1, 9, 3, 11, 3, 10, 9}, Envelope{8, 2, 12, 8}},
	{"single-vertex-line-on-edge", 1, []byte{8, 5}, Envelope{8, 2, 12, 8}},
	{"zero-width-rect-crossed", 1, []byte{0, 5, 20, 5}, Envelope{8, 2, 8, 8}},
	{"zero-width-rect-collinear", 1, []byte{8, 0, 8, 20}, Envelope{8, 2, 8, 8}},
	{"zero-height-rect-in-polygon", 2, []byte{0, 0, 10, 0, 10, 10, 0, 10}, Envelope{3, 4, 6, 4}},
	{"point-rect-on-vertex", 2, []byte{0, 0, 10, 0, 10, 10, 0, 10}, Envelope{10, 10, 10, 10}},
	{"empty-rect", 2, []byte{0, 0, 10, 0, 10, 10, 0, 10}, EmptyEnvelope()},
}

// rectRings returns r as a rectangle polygon in all eight vertex orders
// (four starting corners, both orientations); ToPolygon's is the first.
func rectRings(r Envelope) []*Polygon {
	c := r.Corners()
	var out []*Polygon
	for _, step := range []int{1, 3} {
		for start := 0; start < 4; start++ {
			shell := make([]Point, 5)
			for k := range shell {
				shell[k] = c[(start+k*step)%4]
			}
			out = append(out, &Polygon{Shell: shell})
		}
	}
	return out
}

// checkRectEquivalence holds the rectangle kernel, reached all three ways,
// against the general path. It returns a description of the first
// disagreement, or "".
func checkRectEquivalence(g Geometry, r Envelope) string {
	want := intersectsGeneral(g, r.ToPolygon())
	if got := IntersectsRect(g, r); got != want {
		return fmt.Sprintf("IntersectsRect = %v, general path = %v", got, want)
	}
	if r.IsEmpty() {
		return ""
	}
	for i, rp := range rectRings(r) {
		want := intersectsGeneral(g, rp)
		if got := Intersects(g, rp); got != want {
			return fmt.Sprintf("Intersects(g, ring %d) = %v, general path = %v", i, got, want)
		}
		if got := Intersects(rp, g); got != want {
			return fmt.Sprintf("Intersects(ring %d, g) = %v, general path = %v", i, got, want)
		}
	}
	return ""
}

// starPolygon is a simple (non-self-intersecting) n-vertex ring around c
// with a radius that wobbles between rMin and rMax.
func starPolygon(r *rand.Rand, c Point, n int, rMin, rMax float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		rad := rMin + (rMax-rMin)*r.Float64()
		s, co := math.Sincos(2 * math.Pi * float64(i) / float64(n))
		pts[i] = Point{c.X + rad*co, c.Y + rad*s}
	}
	return pts
}

// randomRun draws a vertex run: a star ring, free floats, or grid points.
func randomRun(r *rand.Rand) []Point {
	n := 1 + r.Intn(40)
	switch r.Intn(3) {
	case 0:
		return starPolygon(r, Point{r.Float64() * 20, r.Float64() * 20}, n+2, 1+r.Float64()*3, 4+r.Float64()*8)
	case 1:
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{r.Float64() * 20, r.Float64() * 20}
		}
		return pts
	default:
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{float64(r.Intn(21)), float64(r.Intn(21))}
		}
		return pts
	}
}

// randomRect draws a rectangle from tiny to larger than any run, on the
// grid half of the time so that its edges coincide with vertices.
func randomRect(r *rand.Rand) Envelope {
	x, y := r.Float64()*24-2, r.Float64()*24-2
	w, h := math.Pow(2, r.Float64()*6-1), math.Pow(2, r.Float64()*6-1)
	if r.Intn(2) == 0 {
		x, y, w, h = math.Floor(x), math.Floor(y), math.Ceil(w), math.Ceil(h)
	}
	return Envelope{x, y, x + w, y + h}
}

func TestIntersectsRectEquivalence(t *testing.T) {
	for _, c := range rectCases {
		t.Run(c.name, func(t *testing.T) {
			if msg := checkRectEquivalence(kernelGeometry(c.kind, bytePoints(c.coords)), c.r); msg != "" {
				t.Error(msg)
			}
		})
	}
	// An unclosed ring: PointInPolygon closes it implicitly, the crossing
	// loop does not, so a rectangle over the missing edge is decided by
	// which of its corners is tested — the shell's first, in every order.
	open := &Polygon{Shell: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}}
	if msg := checkRectEquivalence(open, Envelope{-1, 4, 1, 6}); msg != "" {
		t.Errorf("unclosed ring: %s", msg)
	}

	r := rand.New(rand.NewSource(41))
	hits := 0
	for i := 0; i < 20000; i++ {
		kind, run, rect := byte(i%kernelKinds), randomRun(r), randomRect(r)
		g := kernelGeometry(kind, run)
		if msg := checkRectEquivalence(g, rect); msg != "" {
			t.Fatalf("case %d kind %d run %v rect %+v: %s", i, kind, run, rect, msg)
		}
		if IntersectsRect(g, rect) {
			hits++
		}
	}
	// The sweep must exercise both answers, or it proves nothing.
	if hits < 2000 || hits > 18000 {
		t.Errorf("random sweep is lopsided: %d of 20000 intersect", hits)
	}
}

// The dispatch must not mistake a 5-point shell for a rectangle.
func TestRectOfRejects(t *testing.T) {
	cases := map[string]*Polygon{
		"zero-width":     Envelope{1, 1, 1, 5}.ToPolygon(),
		"zero-height":    Envelope{1, 1, 5, 1}.ToPolygon(),
		"skewed":         {Shell: []Point{{0, 0}, {4, 0}, {5, 3}, {0, 3}, {0, 0}}},
		"bow-tie":        {Shell: []Point{{0, 0}, {4, 3}, {4, 0}, {0, 3}, {0, 0}}},
		"retraced-L":     {Shell: []Point{{0, 0}, {4, 0}, {0, 0}, {0, 3}, {0, 0}}},
		"open":           {Shell: []Point{{0, 0}, {4, 0}, {4, 3}, {0, 3}, {0, 1}}},
		"six-points":     {Shell: []Point{{0, 0}, {2, 0}, {4, 0}, {4, 3}, {0, 3}, {0, 0}}},
		"with-hole":      {Shell: Envelope{0, 0, 9, 9}.ToPolygon().Shell, Holes: [][]Point{Envelope{1, 1, 2, 2}.ToPolygon().Shell}},
		"nan-coordinate": {Shell: []Point{{0, 0}, {math.NaN(), 0}, {4, 3}, {0, 3}, {0, 0}}},
	}
	for name, p := range cases {
		if _, ok := AsRect(p); ok {
			t.Errorf("%s: taken for a rectangle", name)
		}
	}
	for i, p := range rectRings(Envelope{-2, 1, 4, 3}) {
		if rp, ok := AsRect(p); !ok || rp.r != (Envelope{-2, 1, 4, 3}) {
			t.Errorf("ring %d: AsRect = %+v, %v", i, rp.r, ok)
		}
	}
	if _, ok := AsRect(&LineString{Pts: Envelope{0, 0, 1, 1}.ToPolygon().Shell}); ok {
		t.Error("a line string is not a rectangle polygon")
	}
}

// checkRectProbe holds the probe a refine loop builds once — AsRect of the
// rectangle's polygon, fed the candidate's envelope — against the dispatch
// and the general path on that polygon, in every vertex order. It returns
// a description of the first disagreement, or "".
func checkRectProbe(g Geometry, r Envelope) string {
	for i, rp := range rectRings(r) {
		p, ok := AsRect(rp)
		if !ok {
			if r.MinX < r.MaxX && r.MinY < r.MaxY {
				return fmt.Sprintf("ring %d: AsRect rejects a proper rectangle", i)
			}
			continue
		}
		got := p.Intersects(g, g.Envelope())
		if want := Intersects(g, rp); got != want {
			return fmt.Sprintf("ring %d: RectProbe.Intersects = %v, Intersects = %v", i, got, want)
		}
		// An empty r's polygon has infinite corners, which the general path
		// does not walk as a rectangle; checkRectEquivalence skips it too.
		if want := intersectsGeneral(g, rp); !r.IsEmpty() && got != want {
			return fmt.Sprintf("ring %d: RectProbe.Intersects = %v, general path = %v", i, got, want)
		}
	}
	return ""
}

// probeRects returns the rectangles that stress a probe against a
// candidate's envelope e: the case's own rectangle, and rectangles that
// contain e, equal it, share one of its edges from outside, touch one of
// its corners, and miss or cut it by one ulp on each side.
func probeRects(r, e Envelope) []Envelope {
	up, down := math.Inf(1), math.Inf(-1)
	return []Envelope{
		r,
		{e.MinX - 1, e.MinY - 1, e.MaxX + 1, e.MaxY + 1},
		e,
		{e.MaxX, e.MinY, e.MaxX + 3, e.MaxY},
		{e.MinX - 3, e.MinY, e.MinX, e.MaxY},
		{e.MinX, e.MaxY, e.MaxX, e.MaxY + 3},
		{e.MaxX, e.MaxY, e.MaxX + 2, e.MaxY + 2},
		{e.MinX - 2, e.MinY - 2, e.MinX, e.MinY},
		{math.Nextafter(e.MaxX, up), e.MinY, e.MaxX + 3, e.MaxY},
		{e.MinX - 3, e.MinY, math.Nextafter(e.MinX, down), e.MaxY},
		{e.MinX, e.MinY, math.Nextafter(e.MaxX, down), e.MaxY},
		{math.Nextafter(e.MinX, up), e.MinY, e.MaxX, e.MaxY},
		{e.MinX, math.Nextafter(e.MinY, up), e.MaxX, math.Nextafter(e.MaxY, down)},
	}
}

// TestRectProbeMatchesIntersects pins the refine loop's probe: AsRect
// built once, handed each candidate's own envelope, answers what
// Intersects answers on the rectangle's polygon.
func TestRectProbeMatchesIntersects(t *testing.T) {
	for _, c := range rectCases {
		for kind := byte(0); kind < kernelKinds; kind++ {
			g := kernelGeometry(kind, bytePoints(c.coords))
			if g == nil {
				continue
			}
			for _, r := range probeRects(c.r, g.Envelope()) {
				if msg := checkRectProbe(g, r); msg != "" {
					t.Errorf("%s kind %d rect %+v: %s", c.name, kind, r, msg)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 5000; i++ {
		g := kernelGeometry(byte(i%kernelKinds), randomRun(r))
		for _, rect := range probeRects(randomRect(r), g.Envelope()) {
			if msg := checkRectProbe(g, rect); msg != "" {
				t.Fatalf("case %d rect %+v: %s", i, rect, msg)
			}
		}
	}
}

func TestPolylinesCrossEquivalence(t *testing.T) {
	check := func(t *testing.T, a, b []Point) {
		t.Helper()
		want := naivePolylinesCross(a, b)
		if got := polylinesCross(a, b); got != want {
			t.Fatalf("polylinesCross(%v, %v) = %v, naive = %v", a, b, got, want)
		}
		if got := polylinesCross(b, a); got != want {
			t.Fatalf("polylinesCross swapped (%v, %v) = %v, naive = %v", b, a, got, want)
		}
	}
	// Every adversarial rectangle case, as ring against ring.
	for _, c := range rectCases {
		check(t, bytePoints(c.coords), c.r.ToPolygon().Shell)
	}
	check(t, nil, bytePoints(spiral))
	check(t, bytePoints(spiral)[:1], bytePoints(spiral))
	// Touching only at the far end of both runs: clipping must keep the
	// last segment.
	check(t, []Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}}, []Point{{9, 9}, {6, 5}, {3, 0}})
	// Envelope-overlapping interleaved spirals that never touch.
	check(t, bytePoints(spiral), []Point{{0.5, 1.5}, {0.5, 2.5}, {11.5, 2.5}, {11.5, 10.5}, {1.5, 10.5}, {1.5, 3.5}})

	r := rand.New(rand.NewSource(43))
	hits := 0
	for i := 0; i < 20000; i++ {
		a, b := randomRun(r), randomRun(r)
		if i%4 == 0 { // a small run against a large one: the clipped case
			c := Point{r.Float64() * 20, r.Float64() * 20}
			a = starPolygon(r, c, 3+r.Intn(6), 0.1, 0.6)
			b = starPolygon(r, Point{10, 10}, 200, 6, 9)
		}
		check(t, a, b)
		if polylinesCross(a, b) {
			hits++
		}
	}
	if hits < 2000 || hits > 18000 {
		t.Errorf("random sweep is lopsided: %d of 20000 cross", hits)
	}
}

// Both kernels work on the caller's vertices in place.
func TestKernelsDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	run := starPolygon(r, Point{10, 10}, 64, 4, 8)
	rects := []Envelope{{0, 0, 20, 20}, {9, 9, 11, 11}, {12, 8, 30, 12}, {17.5, 17.5, 19, 19}}
	for kind := byte(0); kind < kernelKinds; kind++ {
		g := kernelGeometry(kind, run)
		g.Envelope() // the lazy envelope cache is the geometry's, not the kernel's
		for _, rect := range rects {
			if n := testing.AllocsPerRun(20, func() { IntersectsRect(g, rect) }); n != 0 {
				t.Errorf("IntersectsRect kind %d rect %+v: %v allocs", kind, rect, n)
			}
			rp := rect.ToPolygon()
			if n := testing.AllocsPerRun(20, func() { Intersects(g, rp) }); n != 0 {
				t.Errorf("Intersects kind %d on rectangle polygon %+v: %v allocs", kind, rect, n)
			}
		}
	}
	small := starPolygon(r, Point{16, 10}, 8, 0.5, 1)
	for _, other := range [][]Point{small, starPolygon(r, Point{12, 12}, 64, 4, 8)} {
		if n := testing.AllocsPerRun(20, func() { polylinesCross(run, other) }); n != 0 {
			t.Errorf("polylinesCross: %v allocs", n)
		}
	}

	// A straddler the span rule accepts: the star's x-range lies within
	// the rectangle's, its y-range does not.
	star := &Polygon{Shell: run}
	span := Envelope{0, 9, 20, 11}
	if p, _ := AsRect(span.ToPolygon()); !p.Intersects(star, star.Envelope()) {
		t.Fatal("span straddler not accepted")
	}
	if n := testing.AllocsPerRun(20, func() { IntersectsRect(star, span) }); n != 0 {
		t.Errorf("IntersectsRect on a span straddler: %v allocs", n)
	}

	// Integer-grid collinear and touching inputs, which the float filter
	// cannot settle: the exact fallback decides them without allocating.
	square := &Polygon{Shell: []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}}}
	grid := []struct {
		name       string
		a, b, c, d Point
	}{
		{"collinear-overlap", Point{0, 0}, Point{4, 0}, Point{2, 0}, Point{6, 0}},
		{"touching", Point{0, 0}, Point{4, 4}, Point{2, 2}, Point{2, 7}},
		{"shared-vertex", Point{0, 0}, Point{3, 1}, Point{3, 1}, Point{5, 0}},
	}
	for _, c := range grid {
		if _, ok := orient(c.a, c.b, c.c); ok {
			t.Fatalf("%s: the float filter settled it; it does not reach the fallback", c.name)
		}
		if !SegmentsIntersect(c.a, c.b, c.c, c.d) {
			t.Errorf("%s: SegmentsIntersect = false", c.name)
		}
		if n := testing.AllocsPerRun(20, func() { SegmentsIntersect(c.a, c.b, c.c, c.d) }); n != 0 {
			t.Errorf("SegmentsIntersect %s: %v allocs", c.name, n)
		}
		line := &LineString{Pts: []Point{c.c, c.d}}
		if n := testing.AllocsPerRun(20, func() { Intersects(line, square) }); n != 0 {
			t.Errorf("Intersects %s: %v allocs", c.name, n)
		}
		if n := testing.AllocsPerRun(20, func() { PointInPolygon(c.c, square) }); n != 0 {
			t.Errorf("PointInPolygon %s: %v allocs", c.name, n)
		}
	}
}

// FuzzIntersectsRect fuzzes the rectangle kernel, and the probe a refine
// loop builds from the rectangle's polygon, against the general path.
// The seed corpus is the adversarial table, so plain `go test` runs it.
func FuzzIntersectsRect(f *testing.F) {
	for _, c := range rectCases {
		f.Add(c.kind, c.coords, c.r.MinX, c.r.MinY, c.r.MaxX, c.r.MaxY)
	}
	f.Fuzz(func(t *testing.T, kind byte, coords []byte, minX, minY, maxX, maxY float64) {
		g := kernelGeometry(kind, bytePoints(coords))
		if g == nil {
			t.Skip("no vertices")
		}
		// Non-finite coordinates keep the float behaviour, which claims
		// nothing; every finite rectangle is decided exactly.
		for _, v := range []float64{minX, minY, maxX, maxY} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite rectangle")
			}
		}
		r := Envelope{minX, minY, maxX, maxY}
		if msg := checkRectEquivalence(g, r); msg != "" {
			t.Error(msg)
		}
		if msg := checkRectProbe(g, r); msg != "" {
			t.Error(msg)
		}
	})
}
