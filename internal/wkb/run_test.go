package wkb

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geom"
)

// runPoints is an n-vertex run whose coordinates include a NaN and a
// negative zero, so an envelope folded in the wrong order shows.
func runPoints(n int, x0 float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + float64(i), Y: float64(i%7) - 3}
	}
	if n > 2 {
		pts[1].X = math.NaN()
		pts[2].Y = math.Copysign(0, -1)
	}
	return pts
}

// TestPointRunEdges: pointRun reserves a whole run at once — in the current
// slab when it fits, else in a fresh slab of max(slabPoints, n) — and folds
// the run's envelope as it decodes. Across the boundary cases the decoded
// run re-encodes to its input, its envelope is bitwise geom.EnvelopeOf of
// its points, it is capped at its length, and the geometry decoded before
// it is untouched.
func TestPointRunEdges(t *testing.T) {
	const prefill = 10
	cases := []struct {
		name             string
		prefill, n       int
		wantLen, wantCap int // the slab after the run
	}{
		{"empty", prefill, 0, prefill, slabPoints},
		{"one", prefill, 1, prefill + 1, slabPoints},
		{"slab remainder", prefill, slabPoints - prefill, slabPoints, slabPoints},
		{"remainder+1", prefill, slabPoints - prefill + 1, slabPoints - prefill + 1, slabPoints},
		{"slabPoints", 0, slabPoints, slabPoints, slabPoints},
		{"slabPoints+1", 0, slabPoints + 1, slabPoints + 1, slabPoints + 1},
	}
	for _, tc := range cases {
		p := NewParser()
		var first geom.Geometry
		var firstEnc []byte
		if tc.prefill > 0 {
			firstEnc = Encode(&geom.LineString{Pts: runPoints(tc.prefill, -50)})
			g, _, err := p.Decode(firstEnc)
			if err != nil {
				t.Fatal(err)
			}
			first = g
		}
		pts := runPoints(tc.n, 100)
		enc := Encode(&geom.LineString{Pts: pts})
		g, n, err := p.Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decode: %v (n=%d of %d)", tc.name, err, n, len(enc))
		}
		ls := g.(*geom.LineString)
		if !bytes.Equal(Encode(ls), enc) {
			t.Errorf("%s: run does not re-encode to its input", tc.name)
		}
		if got, want := ls.Envelope(), geom.EnvelopeOf(pts); !sameBits(got, want) {
			t.Errorf("%s: envelope %+v, EnvelopeOf %+v", tc.name, got, want)
		}
		if cap(ls.Pts) != len(ls.Pts) {
			t.Errorf("%s: run of %d points has capacity %d", tc.name, len(ls.Pts), cap(ls.Pts))
		}
		if len(p.slab) != tc.wantLen || cap(p.slab) != tc.wantCap {
			t.Errorf("%s: slab len %d cap %d, want %d / %d", tc.name, len(p.slab), cap(p.slab), tc.wantLen, tc.wantCap)
		}
		if first != nil && !bytes.Equal(Encode(first), firstEnc) {
			t.Errorf("%s: the earlier geometry was overwritten", tc.name)
		}
	}
}

// TestArenaKeepsEarlierGeometries: runs are sliced out of shared slabs, so
// the first geometry a Parser decodes must keep its coordinates, bit for
// bit, through 10k further decodes — runs that fit, runs that spill into a
// fresh slab, and runs larger than a slab.
func TestArenaKeepsEarlierGeometries(t *testing.T) {
	p := NewParser()
	decode := func(enc []byte) geom.Geometry {
		g, _, err := p.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	firstEnc := Encode(&geom.Polygon{Shell: runPoints(37, 0), Holes: [][]geom.Point{runPoints(5, 1)}})
	first := decode(firstEnc)
	for i := 0; i < 10000; i++ {
		n := 1 + (i*131)%300
		if i%997 == 0 {
			n = slabPoints + i%3
		}
		decode(Encode(&geom.LineString{Pts: runPoints(n, float64(i))}))
	}
	if !bytes.Equal(Encode(first), firstEnc) {
		t.Error("the first decoded geometry changed under later decodes")
	}
}

// TestDecodeAllocsPerRecord pins wkb.decode_allocs_per_rec: a dedicated
// Parser decoding polygons allocates the geometry, the hole list when there
// are holes, and an amortized share of one slab per slabPoints vertices.
func TestDecodeAllocsPerRecord(t *testing.T) {
	for _, tc := range []struct {
		poly *geom.Polygon
		want float64
	}{
		{&geom.Polygon{Shell: runPoints(12, 0)}, 1},
		{&geom.Polygon{Shell: runPoints(12, 0), Holes: [][]geom.Point{runPoints(4, 1)}}, 2},
	} {
		enc := Encode(tc.poly)
		p := NewParser()
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, err := p.Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.want {
			t.Errorf("polygon with %d holes: %v allocations per decode, want %v", len(tc.poly.Holes), allocs, tc.want)
		}
	}
}
