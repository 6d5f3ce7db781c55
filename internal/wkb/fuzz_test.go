package wkb

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
)

// FuzzDecode drives the file-facing decoder with arbitrary bytes. The
// invariants: it never panics, it never reports success without consuming a
// sensible byte count, and every decodable input round-trips byte-exactly
// through Encode (the encoding is canonical: little-endian only, counts
// derived from content) — the licence for core's raw exchange path to ship
// a record's file bytes as its frame payload. Scan must agree with Decode on
// every input: accept or reject, error text, bytes consumed, geometry type,
// and the primed envelope bit for bit — and that envelope must equal the
// lazy fold of an unprimed copy.
func FuzzDecode(f *testing.F) {
	seedGeoms := []geom.Geometry{
		geom.Point{X: 1.5, Y: -2.25},
		&geom.LineString{Pts: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}}},
		&geom.Polygon{
			Shell: []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 0}},
			Holes: [][]geom.Point{{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 1}}},
		},
		&geom.MultiPoint{Pts: []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}},
		&geom.MultiLineString{Lines: []geom.LineString{
			{Pts: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}},
		}},
		&geom.MultiPolygon{Polys: []geom.Polygon{
			{Shell: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 0}}},
		}},
	}
	for _, g := range seedGeoms {
		enc := Encode(g)
		f.Add(enc)
		f.Add(enc[:len(enc)-3]) // truncated payload
		f.Add(enc[:3])          // truncated header
	}
	// Hostile counts: tiny buffers whose headers claim huge element counts.
	for _, code := range []byte{codePoint, codeLineString, codePolygon, codeMultiPoint, codeMultiLineString, codeMultiPolygon} {
		hostile := []byte{1, code, 0, 0, 0}
		hostile = binary.LittleEndian.AppendUint32(hostile, 0xffffffff)
		f.Add(hostile)
		almostWrap := []byte{1, code, 0, 0, 0}
		almostWrap = binary.LittleEndian.AppendUint32(almostWrap, 0x10000001)
		f.Add(almostWrap)
	}
	f.Add([]byte{0, 1, 0, 0, 0})             // big-endian marker
	f.Add([]byte{1, 99, 0, 0, 0})            // unknown code
	f.Add([]byte{1, 3, 0, 0, 0, 0, 0, 0, 0}) // polygon with zero rings
	// Envelope edge cases for Scan ≡ Decode: special floats and empty runs.
	for _, g := range scanEdgeGeoms() {
		f.Add(Encode(g))
	}
	// Run lengths around the arena's slab size: a vertex run or a
	// MULTIPOINT's points are reserved and folded in one pass.
	for _, n := range []int{0, 1, slabPoints - 1, slabPoints, slabPoints + 1} {
		f.Add(Encode(&geom.LineString{Pts: runPoints(n, 0)}))
		f.Add(Encode(&geom.MultiPoint{Pts: runPoints(n, 0)}))
	}
	// MULTIPOINTs failing at their first, middle and last element.
	for _, k := range []int{0, 2, 4} {
		for _, bad := range brokenMultiPoints(5, k) {
			f.Add(bad)
		}
	}
	f.Add(Encode(&geom.Polygon{Shell: runPoints(slabPoints+1, 0), Holes: [][]geom.Point{runPoints(1, 2), {}}}))
	f.Add(Encode(&geom.MultiLineString{Lines: []geom.LineString{{Pts: runPoints(slabPoints-1, 0)}, {Pts: runPoints(2, 1)}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, n, err := Decode(data)
		assertScanMatches(t, data, g, n, err)
		if err != nil {
			if g != nil {
				t.Fatalf("Decode returned a geometry alongside error %v", err)
			}
			return
		}
		if g == nil {
			t.Fatal("Decode succeeded with nil geometry")
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		re := Encode(g)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data[:n], re)
		}
	})
}

// scanEdgeGeoms are the inputs where an envelope fold could drift from
// Decode's: NaN, signed zeros and infinities among the coordinates, empty
// runs (LINESTRING EMPTY, an empty MULTIPOINT, a polygon with an empty shell
// and a non-empty hole), holes, and collections mixing all of them.
func scanEdgeGeoms() []geom.Geometry {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	square := func(x float64) []geom.Point {
		return []geom.Point{{X: x, Y: 0}, {X: x + 1, Y: 0}, {X: x + 1, Y: 1}, {X: x, Y: 0}}
	}
	return []geom.Geometry{
		geom.Point{X: nan, Y: 1},
		geom.Point{X: negZero, Y: negZero},
		&geom.LineString{Pts: []geom.Point{{X: 0, Y: negZero}, {X: negZero, Y: 0}}},
		&geom.LineString{Pts: []geom.Point{{X: 1, Y: 1}, {X: nan, Y: 2}, {X: 3, Y: nan}}},
		&geom.LineString{Pts: []geom.Point{{X: inf, Y: -inf}, {X: -inf, Y: inf}}},
		&geom.LineString{},
		&geom.MultiPoint{},
		&geom.MultiPoint{Pts: []geom.Point{{X: nan, Y: nan}, {X: 1, Y: negZero}}},
		&geom.Polygon{Shell: []geom.Point{}, Holes: [][]geom.Point{square(5)}},
		&geom.Polygon{Shell: square(0), Holes: [][]geom.Point{square(0.25), {}}},
		&geom.MultiLineString{Lines: []geom.LineString{{}, {Pts: []geom.Point{{X: 2, Y: 2}}}, {}}},
		&geom.MultiLineString{Lines: []geom.LineString{{Pts: []geom.Point{{X: nan, Y: 0}}}, {Pts: []geom.Point{{X: 1, Y: 1}}}}},
		&geom.MultiPolygon{Polys: []geom.Polygon{
			{Shell: []geom.Point{}},
			{Shell: square(-3), Holes: [][]geom.Point{square(-2.5)}},
			{Shell: square(inf)},
		}},
		&geom.MultiPolygon{},
	}
}

// assertScanMatches checks Scan against Decode's outcome (g, n, err) on data.
func assertScanMatches(t *testing.T, data []byte, g geom.Geometry, n int, err error) {
	t.Helper()
	st, senv, sn, serr := Scan(data)
	if (err == nil) != (serr == nil) {
		t.Fatalf("Decode err %v, Scan err %v on %x", err, serr, data)
	}
	if err != nil {
		if err.Error() != serr.Error() {
			t.Fatalf("error text: Decode %q, Scan %q", err, serr)
		}
		return
	}
	if sn != n {
		t.Fatalf("Scan consumed %d bytes, Decode %d", sn, n)
	}
	if st != g.GeomType() {
		t.Fatalf("Scan type %v, Decode %v", st, g.GeomType())
	}
	if denv := g.Envelope(); !sameBits(senv, denv) {
		t.Fatalf("Scan envelope %+v, Decode %+v", senv, denv)
	}
	// Scan and Decode are one walk, so the check above compares the walk
	// with itself. The oracle is geom's own lazy fold over the coordinates.
	if lazy := unprimed(g).Envelope(); !sameBits(senv, lazy) {
		t.Fatalf("primed envelope %+v, lazy EnvelopeOf fold %+v", senv, lazy)
	}
}

// unprimed returns a copy of g with the same coordinate slices in fresh
// structs, so no envelope cache is primed and Envelope() is geom's lazy
// fold.
func unprimed(g geom.Geometry) geom.Geometry {
	switch v := g.(type) {
	case *geom.LineString:
		return &geom.LineString{Pts: v.Pts}
	case *geom.Polygon:
		return &geom.Polygon{Shell: v.Shell, Holes: v.Holes}
	case *geom.MultiPoint:
		return &geom.MultiPoint{Pts: v.Pts}
	case *geom.MultiLineString:
		lines := make([]geom.LineString, len(v.Lines))
		for i := range lines {
			lines[i].Pts = v.Lines[i].Pts
		}
		return &geom.MultiLineString{Lines: lines}
	case *geom.MultiPolygon:
		polys := make([]geom.Polygon, len(v.Polys))
		for i := range polys {
			polys[i].Shell, polys[i].Holes = v.Polys[i].Shell, v.Polys[i].Holes
		}
		return &geom.MultiPolygon{Polys: polys}
	}
	return g // a Point has no cache
}

func sameBits(a, b geom.Envelope) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) &&
		math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) &&
		math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

// FuzzDecodeFramed covers the length-prefix layer: arbitrary headers must
// never panic or over-consume, and decodable records round-trip through
// AppendFramed.
func FuzzDecodeFramed(f *testing.F) {
	f.Add(AppendFramed(nil, geom.Point{X: 7, Y: -7}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}) // header claiming ~4 GiB
	f.Add([]byte{2, 0, 0, 0, 1})                   // payload shorter than announced
	f.Add([]byte{0, 0, 0, 0})                      // empty payload
	f.Fuzz(func(t *testing.T, data []byte) {
		g, n, err := DecodeFramed(data)
		if err != nil {
			return
		}
		if n < FrameHeaderSize || n > len(data) {
			t.Fatalf("DecodeFramed consumed %d of %d bytes", n, len(data))
		}
		if !bytes.Equal(AppendFramed(nil, g), data[:n]) {
			t.Fatal("framed re-encode mismatch")
		}
	})
}
