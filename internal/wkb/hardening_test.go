package wkb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// TestCollectionCountClamped pins the fix for unbounded pre-allocation: a
// 9-byte collection header claiming 2^31 elements must fail fast with
// ErrTruncated — the claimed count times the minimum element size exceeds
// the bytes that remain — instead of reserving gigabytes and walking into
// them.
func TestCollectionCountClamped(t *testing.T) {
	for _, tc := range []struct {
		name string
		code byte
	}{
		{"multipoint", codeMultiPoint},
		{"multilinestring", codeMultiLineString},
		{"multipolygon", codeMultiPolygon},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := []byte{1, tc.code, 0, 0, 0}
			buf = binary.LittleEndian.AppendUint32(buf, 1<<31-1)
			if _, _, err := Decode(buf); !errors.Is(err, ErrTruncated) {
				t.Fatalf("err = %v, want ErrTruncated", err)
			}
			// The guard must reject before reserving anything: a handful of
			// allocations (pool bookkeeping), not a element-count-sized slab.
			allocs := testing.AllocsPerRun(20, func() {
				Decode(buf) //nolint:errcheck // the error is the point
			})
			if allocs > 4 {
				t.Errorf("hostile count cost %.0f allocs/op, want fast-fail", allocs)
			}
		})
	}
}

// TestPointCountOverflow32Bit pins the int64 comparison in the vertex-count
// guard: with a 32-bit int, int(0x10000001)*16 wraps to 16 and would slip
// past a native-int check, letting the decode loop run off the buffer. The
// guard must reject it on every GOARCH (the CI cross-compiles GOARCH=386 to
// keep the class out).
func TestPointCountOverflow32Bit(t *testing.T) {
	buf := []byte{1, codeLineString, 0, 0, 0}
	buf = binary.LittleEndian.AppendUint32(buf, 0x10000001)
	buf = append(buf, make([]byte, 32)...) // a few real vertex bytes
	if _, _, err := Decode(buf); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// TestDecodeRectsTruncated pins the silent-truncation fix: a buffer whose
// length is not a whole number of MBR records is data loss, not a shorter
// result.
func TestDecodeRectsTruncated(t *testing.T) {
	rects := []geom.Envelope{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3},
	}
	var buf []byte
	for _, e := range rects {
		buf = AppendRect(buf, e)
	}
	if _, err := DecodeRects(buf[:len(buf)-5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("partial trailing record: err = %v, want ErrTruncated", err)
	}
	if got, err := DecodeRects(buf); err != nil || len(got) != 2 {
		t.Errorf("whole buffer: got %d rects, err %v", len(got), err)
	}
	if got, err := DecodeRects(nil); err != nil || len(got) != 0 {
		t.Errorf("empty buffer: got %d rects, err %v", len(got), err)
	}
}

// TestAppendPointerPoint pins the *geom.Point asymmetry fix: every other
// geometry is pointer-typed, so a pointer-to-Point must encode like the
// value instead of panicking.
func TestAppendPointerPoint(t *testing.T) {
	p := geom.Point{X: 3, Y: 4}
	byValue := Encode(p)
	byPointer := Encode(&p)
	if !bytes.Equal(byValue, byPointer) {
		t.Fatalf("Encode(&p) = %x, want %x", byPointer, byValue)
	}
	g, n, err := Decode(byPointer)
	if err != nil || n != len(byPointer) {
		t.Fatalf("decode: %v (n=%d)", err, n)
	}
	if g != p {
		t.Errorf("round trip = %+v", g)
	}
}

// TestParserReuse: geometries decoded by earlier calls must stay valid as
// the arena-backed Parser is reused — slabs are abandoned, never recycled.
func TestParserReuse(t *testing.T) {
	p := NewParser()
	var encs [][]byte
	var got []geom.Geometry
	for i := 0; i < 2000; i++ {
		pts := make([]geom.Point, 3+(i%7))
		for j := range pts {
			pts[j] = geom.Point{X: float64(i), Y: float64(j)}
		}
		enc := Encode(&geom.LineString{Pts: pts})
		encs = append(encs, enc)
		g, n, err := p.Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode %d: %v (n=%d)", i, err, n)
		}
		got = append(got, g)
	}
	for i, g := range got {
		if !bytes.Equal(Encode(g), encs[i]) {
			t.Fatalf("geometry %d corrupted by later decodes", i)
		}
	}
}

// TestFramedRecords covers the length-prefixed record layer the binary
// ingest path reads.
func TestFramedRecords(t *testing.T) {
	geoms := []geom.Geometry{
		geom.Point{X: 30, Y: 10},
		&geom.LineString{Pts: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}},
		&geom.Polygon{Shell: []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 0}}},
	}
	var buf []byte
	for _, g := range geoms {
		buf = AppendFramed(buf, g)
	}
	var got []geom.Geometry
	rest := buf
	for len(rest) > 0 {
		g, n, err := DecodeFramed(rest)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, g)
		rest = rest[n:]
	}
	for _, g := range geoms {
		g.Envelope() // match the decoder's primed cache state
	}
	if !reflect.DeepEqual(got, geoms) {
		t.Errorf("framed stream round trip mismatch: %+v", got)
	}

	if _, _, err := DecodeFramed(buf[:2]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: err = %v, want ErrTruncated", err)
	}
	if _, _, err := DecodeFramed(buf[:7]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short payload: err = %v, want ErrTruncated", err)
	}
	// A record whose announced length exceeds its actual geometry is
	// trailing garbage, not a shorter record.
	bad := AppendFramed(nil, geoms[0])
	binary.LittleEndian.PutUint32(bad, uint32(len(bad))) // inflate the length
	bad = append(bad, 0xaa, 0xbb, 0xcc, 0xdd)
	if _, _, err := DecodeFramed(bad); err == nil {
		t.Error("inflated framed length accepted")
	}
}
