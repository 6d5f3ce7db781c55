package wkt

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestParsePoint(t *testing.T) {
	g, err := ParseString("POINT (30 10)")
	if err != nil {
		t.Fatal(err)
	}
	if g != (geom.Point{X: 30, Y: 10}) {
		t.Errorf("got %+v", g)
	}
}

func TestParsePaperExample(t *testing.T) {
	// The exact example from paper §2.
	g, err := ParseString("POLYGON ((30 10, 40 40, 20 40, 30 10))")
	if err != nil {
		t.Fatal(err)
	}
	poly, ok := g.(*geom.Polygon)
	if !ok {
		t.Fatalf("got %T, want *geom.Polygon", g)
	}
	if len(poly.Shell) != 4 || len(poly.Holes) != 0 {
		t.Errorf("shell=%d holes=%d", len(poly.Shell), len(poly.Holes))
	}
	if poly.Envelope() != (geom.Envelope{MinX: 20, MinY: 10, MaxX: 40, MaxY: 40}) {
		t.Errorf("envelope = %+v", poly.Envelope())
	}
}

func TestParseVariants(t *testing.T) {
	cases := []struct {
		name string
		in   string
		typ  geom.Type
		pts  int
	}{
		{"point-neg", "POINT(-71.06 42.28)", geom.TypePoint, 1},
		{"point-sci", "POINT(1e3 -2.5E-2)", geom.TypePoint, 1},
		{"lowercase", "point (1 2)", geom.TypePoint, 1},
		{"linestring", "LINESTRING (30 10, 10 30, 40 40)", geom.TypeLineString, 3},
		{"line-tight", "LINESTRING(0 0,1 1)", geom.TypeLineString, 2},
		{"polygon-hole", "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))", geom.TypePolygon, 9},
		{"multipoint-bare", "MULTIPOINT (10 40, 40 30, 20 20, 30 10)", geom.TypeMultiPoint, 4},
		{"multipoint-paren", "MULTIPOINT ((10 40), (40 30))", geom.TypeMultiPoint, 2},
		{"multilinestring", "MULTILINESTRING ((10 10, 20 20, 10 40), (40 40, 30 30))", geom.TypeMultiLineString, 5},
		{"multipolygon", "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 5 10, 15 5)))", geom.TypeMultiPolygon, 9},
		{"extra-whitespace", "  POLYGON  ( ( 0 0 , 1 0 , 1 1 , 0 0 ) )  ", geom.TypePolygon, 4},
		{"newlines", "LINESTRING (0 0,\n 1 1,\n 2 0)", geom.TypeLineString, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := ParseString(c.in)
			if err != nil {
				t.Fatalf("Parse(%q): %v", c.in, err)
			}
			if g.GeomType() != c.typ {
				t.Errorf("type = %v, want %v", g.GeomType(), c.typ)
			}
			if g.NumPoints() != c.pts {
				t.Errorf("NumPoints = %d, want %d", g.NumPoints(), c.pts)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"whitespace", "   "},
		{"garbage", "HELLO (1 2)"},
		{"unclosed", "POINT (1 2"},
		{"missing-y", "POINT (1)"},
		{"bad-number", "POINT (a b)"},
		{"trailing", "POINT (1 2) extra"},
		{"short-line", "LINESTRING (1 2)"},
		{"open-ring", "POLYGON ((0 0, 1 0, 1 1, 0 1))"},
		{"tiny-ring", "POLYGON ((0 0, 1 0, 0 0))"},
		{"no-rings", "POLYGON ()"},
		{"point-empty", "POINT EMPTY"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if g, err := ParseString(c.in); err == nil {
				t.Errorf("Parse(%q) succeeded with %+v, want error", c.in, g)
			}
		})
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := ParseString("POINT (1 2")
	serr, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T, want *SyntaxError", err)
	}
	if serr.Offset <= 0 || !strings.Contains(serr.Error(), "byte") {
		t.Errorf("unhelpful syntax error: %v", serr)
	}
	// A malformed coordinate is quoted, at the byte where its token starts.
	_, err = ParseString("POINT (1-2 3)")
	if serr, ok := err.(*SyntaxError); !ok || serr.Offset != 7 || !strings.Contains(serr.Msg, `"1-2"`) {
		t.Errorf("bad number error = %v, want the token \"1-2\" quoted at byte 7", err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	inputs := []string{
		"POINT (30 10)",
		"LINESTRING (30 10, 10 30, 40 40)",
		"POLYGON ((30 10, 40 40, 20 40, 30 10))",
		"POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
		"MULTIPOINT (10 40, 40 30)",
		"MULTILINESTRING ((10 10, 20 20), (40 40, 30 30))",
		"MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 15 5)))",
	}
	for _, in := range inputs {
		g1, err := ParseString(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		out := Format(g1)
		g2, err := ParseString(out)
		if err != nil {
			t.Fatalf("re-parse %q: %v", out, err)
		}
		if !reflect.DeepEqual(g1, g2) {
			t.Errorf("round trip changed geometry:\n in: %s\nout: %s", in, out)
		}
	}
}

// TestFormatPointerPoint pins the *geom.Point asymmetry fix: every other
// geometry formats through a pointer, so a pointer-to-Point must render as
// WKT instead of an UNSUPPORTED placeholder.
func TestFormatPointerPoint(t *testing.T) {
	p := geom.Point{X: 30, Y: 10}
	if got, want := Format(&p), Format(p); got != want {
		t.Errorf("Format(&p) = %q, want %q", got, want)
	}
	if got := Format(&p); strings.Contains(got, "UNSUPPORTED") {
		t.Errorf("Format(&p) = %q", got)
	}
}

// randomGeometry builds an arbitrary valid geometry for round-trip checks.
func randomGeometry(r *rand.Rand) geom.Geometry {
	coord := func() float64 {
		// Limited precision so formatting is exact.
		return float64(r.Intn(20000)-10000) / 100
	}
	pt := func() geom.Point { return geom.Point{X: coord(), Y: coord()} }
	ring := func() []geom.Point {
		n := 3 + r.Intn(6)
		pts := make([]geom.Point, 0, n+1)
		for i := 0; i < n; i++ {
			pts = append(pts, pt())
		}
		return append(pts, pts[0])
	}
	switch r.Intn(6) {
	case 0:
		return pt()
	case 1:
		n := 2 + r.Intn(8)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = pt()
		}
		return &geom.LineString{Pts: pts}
	case 2:
		poly := &geom.Polygon{Shell: ring()}
		for i := 0; i < r.Intn(3); i++ {
			poly.Holes = append(poly.Holes, ring())
		}
		return poly
	case 3:
		n := 1 + r.Intn(5)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = pt()
		}
		return &geom.MultiPoint{Pts: pts}
	case 4:
		n := 1 + r.Intn(4)
		lines := make([]geom.LineString, n)
		for i := range lines {
			m := 2 + r.Intn(5)
			pts := make([]geom.Point, m)
			for j := range pts {
				pts[j] = pt()
			}
			lines[i] = geom.LineString{Pts: pts}
		}
		return &geom.MultiLineString{Lines: lines}
	default:
		n := 1 + r.Intn(3)
		polys := make([]geom.Polygon, n)
		for i := range polys {
			polys[i] = geom.Polygon{Shell: ring()}
		}
		return &geom.MultiPolygon{Polys: polys}
	}
}

// Property: Parse(Format(g)) == g for arbitrary valid geometries.
func TestParseFormatProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(99))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGeometry(r)
		out, err := ParseString(Format(g))
		if err != nil {
			t.Logf("format produced unparseable text: %v\n%s", err, Format(g))
			return false
		}
		// The scanner primes envelope caches while parsing; computing the
		// literal geometry's envelope puts both sides in the same cache
		// state, so DeepEqual checks coordinates AND that the primed
		// envelope is bit-identical to the lazily computed one.
		g.Envelope()
		return reflect.DeepEqual(g, out)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("WKT round-trip property failed: %v", err)
	}
}

func BenchmarkParsePolygon(b *testing.B) {
	in := []byte("POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))")
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(in); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEnvelopePrimedAtParse pins envelope-at-parse: the scanner accumulates
// the MBR while touching the coordinates, so a freshly parsed geometry's
// first Envelope() call reads the primed cache instead of rescanning. The
// proof: mutating the vertices after parse does not change the envelope.
func TestEnvelopePrimedAtParse(t *testing.T) {
	inputs := []string{
		"LINESTRING (30 10, 10 30, 40 40)",
		"POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
		"MULTIPOINT (10 40, 40 30)",
		"MULTILINESTRING ((10 10, 20 20), (40 40, 30 30))",
		"MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 15 5)))",
	}
	for _, in := range inputs {
		g, err := ParseString(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		want := g.Envelope()
		switch v := g.(type) {
		case *geom.LineString:
			v.Pts[0] = geom.Point{X: 1e9, Y: 1e9}
		case *geom.Polygon:
			v.Shell[0] = geom.Point{X: 1e9, Y: 1e9}
		case *geom.MultiPoint:
			v.Pts[0] = geom.Point{X: 1e9, Y: 1e9}
		case *geom.MultiLineString:
			v.Lines[0].Pts[0] = geom.Point{X: 1e9, Y: 1e9}
		case *geom.MultiPolygon:
			v.Polys[0].Shell[0] = geom.Point{X: 1e9, Y: 1e9}
		}
		if got := g.Envelope(); got != want {
			t.Errorf("%q: envelope not primed at parse: got %+v after mutation, want %+v", in, got, want)
		}
	}
}
