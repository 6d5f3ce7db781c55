package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/wkt"
)

// TestWKTParserReuseNoAliasing is the core-level contract check: a
// dedicated (arena-owning) WKTParser reused across records must hand out
// geometries whose coordinates survive later parses untouched.
func TestWKTParserReuseNoAliasing(t *testing.T) {
	p := NewWKTParser()
	g1, err := p.Parse([]byte("POLYGON ((30 10, 40 40, 20 40, 30 10))\tattr1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := p.Parse([]byte("LINESTRING (5 6, 7 8)\tattr2\n"))
	if err != nil {
		t.Fatal(err)
	}
	shell := g1.(*geom.Polygon).Shell
	want := []geom.Point{{X: 30, Y: 10}, {X: 40, Y: 40}, {X: 20, Y: 40}, {X: 30, Y: 10}}
	for i, pt := range want {
		if shell[i] != pt {
			t.Errorf("polygon shell[%d] = %+v, want %+v", i, shell[i], pt)
		}
	}
	pts := g2.(*geom.LineString).Pts
	if pts[0] != (geom.Point{X: 5, Y: 6}) || pts[1] != (geom.Point{X: 7, Y: 8}) {
		t.Errorf("linestring mutated: %+v", pts)
	}
}

// TestWKTParserZeroValue keeps the zero-value (pooled) configuration
// working: it must parse and skip attribute payloads exactly like the
// dedicated one.
func TestWKTParserZeroValue(t *testing.T) {
	var p WKTParser
	g, err := p.Parse([]byte("  POINT (1 2)\tname=x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g != (geom.Point{X: 1, Y: 2}) {
		t.Errorf("got %+v", g)
	}
	if g, err := p.Parse([]byte("   \n")); err != nil || g != nil {
		t.Errorf("blank record: got %v, %v; want nil, nil", g, err)
	}
}

// longLineString is "LINESTRING (0 1, 1 2, ..., n-1 n)".
func longLineString(n int) string {
	var b strings.Builder
	b.WriteString("LINESTRING (")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d %d", i, i+1)
	}
	b.WriteString(")")
	return b.String()
}

// TestWKTParserAttributeCut pins where WKTParser cuts a record's attribute
// payload: at the first tab after the record is trimmed, wherever it lies.
// Every want — the geometry as Format renders it, or the error text — was
// taken from the byte-at-a-time cut this search replaced.
func TestWKTParserAttributeCut(t *testing.T) {
	long := longLineString(600)
	if len(long) <= 4096 {
		t.Fatalf("long record is %d bytes; want > 4096", len(long))
	}
	cases := []struct {
		name, rec, want, wantErr string
	}{
		{name: "tab after geometry", rec: "POINT (1 2)\tname=x\n", want: "POINT (1 2)"},
		{name: "tab after trailing spaces", rec: "LINESTRING (1 2, 3 4)   \tattr", want: "LINESTRING (1 2, 3 4)"},
		{name: "several tabs", rec: "POLYGON ((0 0, 1 0, 1 1, 0 0))\ta\tb\t\tc\n", want: "POLYGON ((0 0, 1 0, 1 1, 0 0))"},
		{name: "tab past 4 KB", rec: long + "\tosm_id=7\n", want: long},
		{name: "no tab", rec: "MULTIPOINT ((1 2), (3 4))\r\n", want: "MULTIPOINT (1 2, 3 4)"},
		{name: "only attributes", rec: "\tattr", wantErr: `wkt: syntax error at byte 4: unsupported geometry type "attr"`},
		{name: "tab inside geometry", rec: "POINT (1\t2)\tattr", wantErr: `wkt: syntax error at byte 8: expected number`},
		{name: "text before tab", rec: "POINT (1 2) x\tattr", wantErr: `wkt: syntax error at byte 12: trailing data after geometry`},
	}
	for _, p := range []WKTParser{NewWKTParser(), {}} {
		for _, tc := range cases {
			g, err := p.Parse([]byte(tc.rec))
			switch {
			case tc.wantErr != "":
				if err == nil || err.Error() != tc.wantErr {
					t.Errorf("%s: got %v, %v; want error %q", tc.name, g, err, tc.wantErr)
				}
			case err != nil:
				t.Errorf("%s: %v", tc.name, err)
			case wkt.Format(g) != tc.want:
				t.Errorf("%s: got %.80q, want %.80q", tc.name, wkt.Format(g), tc.want)
			}
		}
	}
}
