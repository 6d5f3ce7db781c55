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

// TestPointRunEdges: a point run — a LINESTRING's vertices or a
// MULTIPOINT's points — is reserved at once, in the current slab when it
// fits, else in a fresh slab of max(slabPoints, n), and its envelope is
// folded as it decodes. Across the boundary cases the decoded run re-encodes
// to its input, its envelope is bitwise geom.EnvelopeOf of its points, it is
// capped at its length, and the geometry decoded before it is untouched.
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
	shapes := []struct {
		name string
		make func([]geom.Point) geom.Geometry
		pts  func(geom.Geometry) []geom.Point
	}{
		{"LINESTRING",
			func(pts []geom.Point) geom.Geometry { return &geom.LineString{Pts: pts} },
			func(g geom.Geometry) []geom.Point { return g.(*geom.LineString).Pts }},
		{"MULTIPOINT",
			func(pts []geom.Point) geom.Geometry { return &geom.MultiPoint{Pts: pts} },
			func(g geom.Geometry) []geom.Point { return g.(*geom.MultiPoint).Pts }},
	}
	for _, shape := range shapes {
		for _, tc := range cases {
			name := shape.name + " " + tc.name
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
			enc := Encode(shape.make(pts))
			g, n, err := p.Decode(enc)
			if err != nil || n != len(enc) {
				t.Fatalf("%s: decode: %v (n=%d of %d)", name, err, n, len(enc))
			}
			if !bytes.Equal(Encode(g), enc) {
				t.Errorf("%s: run does not re-encode to its input", name)
			}
			if got, want := g.Envelope(), geom.EnvelopeOf(pts); !sameBits(got, want) {
				t.Errorf("%s: envelope %+v, EnvelopeOf %+v", name, got, want)
			}
			if run := shape.pts(g); cap(run) != len(run) {
				t.Errorf("%s: run of %d points has capacity %d", name, len(run), cap(run))
			}
			if len(p.slab) != tc.wantLen || cap(p.slab) != tc.wantCap {
				t.Errorf("%s: slab len %d cap %d, want %d / %d", name, len(p.slab), cap(p.slab), tc.wantLen, tc.wantCap)
			}
			if first != nil && !bytes.Equal(Encode(first), firstEnc) {
				t.Errorf("%s: the earlier geometry was overwritten", name)
			}
		}
	}
}

// brokenMultiPoints returns an m-point MULTIPOINT encoding that fails at
// element k, with a wrong element type and with a bad byte-order marker.
// Both keep every byte, so the count check passes and the run is reserved.
func brokenMultiPoints(m, k int) map[string][]byte {
	elem := headerBytes + 4 + k*(headerBytes+minPointBytes) // element k's header
	out := map[string][]byte{}
	for kind, at := range map[string]int{"wrong element type": elem + 1, "bad byte order": elem} {
		enc := Encode(&geom.MultiPoint{Pts: runPoints(m, 7)})
		enc[at] = 9
		out[kind] = enc
	}
	return out
}

// TestMultiPointErrorKeepsArena: a MULTIPOINT failing at element k hands
// its reserved run back to the arena — the slab is where it was, or a fresh
// one when the run did not fit — the geometries decoded before it keep their
// coordinates bit for bit, and the next decode is correct.
func TestMultiPointErrorKeepsArena(t *testing.T) {
	const prefill = 10
	for _, m := range []int{1, 5, slabPoints - prefill, slabPoints} {
		for _, k := range []int{0, m / 2, m - 1} {
			for kind, bad := range brokenMultiPoints(m, k) {
				p := NewParser()
				firstEnc := Encode(&geom.Polygon{Shell: runPoints(prefill, -50)})
				first, _, err := p.Decode(firstEnc)
				if err != nil {
					t.Fatal(err)
				}
				slab := p.slab
				if _, _, err := p.Decode(bad); err == nil {
					t.Fatalf("m=%d k=%d %s: decoded", m, k, kind)
				}
				wantLen, wantCap := len(slab), cap(slab)
				if m > cap(slab)-len(slab) {
					wantLen, wantCap = 0, max(slabPoints, m) // the run took a fresh slab
				}
				if len(p.slab) != wantLen || cap(p.slab) != wantCap {
					t.Errorf("m=%d k=%d %s: slab len %d cap %d after the error, want %d / %d",
						m, k, kind, len(p.slab), cap(p.slab), wantLen, wantCap)
				}
				if !bytes.Equal(Encode(first), firstEnc) {
					t.Errorf("m=%d k=%d %s: the earlier geometry changed", m, k, kind)
				}
				for _, next := range []geom.Geometry{
					&geom.MultiPoint{Pts: runPoints(3, 1)},
					&geom.LineString{Pts: runPoints(4, 2)},
				} {
					enc := Encode(next)
					g, n, err := p.Decode(enc)
					if err != nil || n != len(enc) || !bytes.Equal(Encode(g), enc) || !sameBits(g.Envelope(), next.Envelope()) {
						t.Errorf("m=%d k=%d %s: next decode of %T wrong (err %v)", m, k, kind, next, err)
					}
				}
				if !bytes.Equal(Encode(first), firstEnc) {
					t.Errorf("m=%d k=%d %s: the earlier geometry changed under the next decodes", m, k, kind)
				}
			}
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
// are holes, and an amortized share of one slab per slabPoints vertices; a
// MULTIPOINT, reserved like a vertex run, the same minus the hole list.
func TestDecodeAllocsPerRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    geom.Geometry
		want float64
	}{
		{"polygon", &geom.Polygon{Shell: runPoints(12, 0)}, 1},
		{"polygon with a hole", &geom.Polygon{Shell: runPoints(12, 0), Holes: [][]geom.Point{runPoints(4, 1)}}, 2},
		{"multipoint", &geom.MultiPoint{Pts: runPoints(12, 0)}, 1},
	} {
		enc := Encode(tc.g)
		p := NewParser()
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, err := p.Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.want {
			t.Errorf("%s: %v allocations per decode, want %v", tc.name, allocs, tc.want)
		}
	}
}

// nanPayloadGeoms is one geometry of each type whose coordinates carry NaNs
// of distinct, non-canonical payloads, inside a four-vertex block and in a
// run's tail: a fold that kept whichever NaN it met, instead of
// math.NaN()'s bits, differs from geom's lazy fold on them.
func nanPayloadGeoms() []geom.Geometry {
	a := math.Float64frombits(0x7ff8000000000abc)
	b := math.Float64frombits(0xfff8000000000001)
	run := []geom.Point{{X: 1, Y: 2}, {X: a, Y: 3}, {X: 4, Y: -1}, {X: 0, Y: 0}, {X: 2, Y: b}, {X: 1, Y: 2}}
	hole := []geom.Point{{X: b, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 1}}
	return []geom.Geometry{
		geom.Point{X: a, Y: b},
		&geom.LineString{Pts: run},
		&geom.Polygon{Shell: run, Holes: [][]geom.Point{hole}},
		&geom.MultiPoint{Pts: run},
		&geom.MultiLineString{Lines: []geom.LineString{{Pts: hole}, {Pts: run}}},
		&geom.MultiPolygon{Polys: []geom.Polygon{{Shell: hole}, {Shell: run, Holes: [][]geom.Point{hole}}}},
	}
}

// envelopes lists every envelope g caches: its own, then each member's.
func envelopes(g geom.Geometry) []geom.Envelope {
	out := []geom.Envelope{g.Envelope()}
	switch v := g.(type) {
	case *geom.MultiLineString:
		for i := range v.Lines {
			out = append(out, v.Lines[i].Envelope())
		}
	case *geom.MultiPolygon:
		for i := range v.Polys {
			out = append(out, v.Polys[i].Envelope())
		}
	}
	return out
}

// TestOwnDecodeKnownEnvelope: DecodePrimed handed Scan's envelope is
// Decode — the same bytes consumed, the same re-encoding, and every primed
// envelope (the geometry's and each member's) bit for bit, each of them
// geom's lazy fold of the coordinates — for all six types, over the
// special-float and NaN-payload inputs. And it primes what it is handed:
// a LINESTRING, POLYGON or MULTIPOINT decoded with a sentinel envelope
// carries the sentinel, so its run was not folded, while a collection
// still carries its members' fold.
func TestOwnDecodeKnownEnvelope(t *testing.T) {
	sentinel := env(-7, -7, 7, 7)
	for _, g := range append(allTypes(), nanPayloadGeoms()...) {
		enc := Encode(g)
		name := g.GeomType().String()
		_, senv, _, err := Scan(enc)
		if err != nil {
			t.Fatalf("%s: Scan: %v", name, err)
		}
		full, n, err := NewParser().Decode(enc)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		known, kn, err := NewParser().DecodePrimed(enc, senv)
		if err != nil || kn != n {
			t.Fatalf("%s: DecodePrimed consumed %d (err %v), Decode %d", name, kn, err, n)
		}
		if !bytes.Equal(Encode(known), enc) {
			t.Errorf("%s: the primed decode does not re-encode to its input", name)
		}
		fe, ke, le := envelopes(full), envelopes(known), envelopes(unprimed(full))
		for i := range fe {
			if !sameBits(ke[i], fe[i]) || !sameBits(fe[i], le[i]) {
				t.Errorf("%s: envelope %d: primed decode %+v, Decode %+v, lazy fold %+v", name, i, ke[i], fe[i], le[i])
			}
		}
		s, _, err := NewParser().DecodePrimed(enc, sentinel)
		if err != nil {
			t.Fatalf("%s: DecodePrimed with a sentinel: %v", name, err)
		}
		want := fe[0]
		switch g.GeomType() {
		case geom.TypeLineString, geom.TypePolygon, geom.TypeMultiPoint:
			want = sentinel
		}
		if got := s.Envelope(); !sameBits(got, want) {
			t.Errorf("%s: decoded with a sentinel envelope, carries %+v, want %+v", name, got, want)
		}
	}
}
