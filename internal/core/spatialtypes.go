package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mpi"
)

// Spatial derived datatypes (paper Table 2, §4.2.1): MPI_POINT is two
// contiguous doubles, MPI_LINE a segment of two points, MPI_RECT four
// doubles (MinX, MinY, MaxX, MaxY). Compound types nest these, e.g. a
// fixed-size triangle is TypeContiguous(3, PointType).
var (
	PointType = mustType(mpi.TypeContiguous(2, mpi.Float64))
	LineType  = mustType(mpi.TypeContiguous(4, mpi.Float64))
	RectType  = mustType(mpi.TypeContiguous(4, mpi.Float64))
)

func mustType(dt *mpi.Datatype, err error) *mpi.Datatype {
	if err != nil {
		panic(err)
	}
	return dt
}

// Spatial reduction operators (paper Table 2, §4.2.2). All are
// element-wise over arrays of their spatial type, associative, and
// commutative; MPI runs them in a reduction tree. MIN and MAX order
// rectangles and lines by size (area / length, as the paper defines "the
// line or rectangle with minimum size"), and points lexicographically.
// UNION is the geometric union (bounding box) of rectangles — the operator
// the paper uses to derive global grid dimensions from per-process MBRs.
var (
	OpRectUnion = mpi.OpCreate("MPI_UNION", true, rectFold(func(a, b geom.Envelope) geom.Envelope {
		return a.Union(b)
	}))
	OpRectMin = mpi.OpCreate("MPI_MIN(rect)", true, rectFold(func(a, b geom.Envelope) geom.Envelope {
		if a.Area() <= b.Area() {
			return a
		}
		return b
	}))
	OpRectMax = mpi.OpCreate("MPI_MAX(rect)", true, rectFold(func(a, b geom.Envelope) geom.Envelope {
		if a.Area() >= b.Area() {
			return a
		}
		return b
	}))
	OpPointMin = mpi.OpCreate("MPI_MIN(point)", true, pointFold(func(a, b geom.Point) geom.Point {
		if a.X < b.X || (a.X == b.X && a.Y <= b.Y) {
			return a
		}
		return b
	}))
	OpPointMax = mpi.OpCreate("MPI_MAX(point)", true, pointFold(func(a, b geom.Point) geom.Point {
		if a.X > b.X || (a.X == b.X && a.Y >= b.Y) {
			return a
		}
		return b
	}))
	OpLineMin = mpi.OpCreate("MPI_MIN(line)", true, lineFold(func(a, b [2]geom.Point) [2]geom.Point {
		if segLen(a) <= segLen(b) {
			return a
		}
		return b
	}))
	OpLineMax = mpi.OpCreate("MPI_MAX(line)", true, lineFold(func(a, b [2]geom.Point) [2]geom.Point {
		if segLen(a) >= segLen(b) {
			return a
		}
		return b
	}))
)

func segLen(s [2]geom.Point) float64 {
	return math.Hypot(s[1].X-s[0].X, s[1].Y-s[0].Y)
}

// rectFold lifts an envelope combiner to an element-wise MPI op over
// MPI_RECT buffers.
func rectFold(fold func(a, b geom.Envelope) geom.Envelope) func(in, inout []byte, count int, dt *mpi.Datatype) error {
	return func(in, inout []byte, count int, dt *mpi.Datatype) error {
		if dt.Size() != 32 {
			return fmt.Errorf("rect operator requires MPI_RECT (32 bytes), got %s", dt.Name())
		}
		for i := 0; i < count; i++ {
			a := decodeRect(in[i*32:])
			b := decodeRect(inout[i*32:])
			encodeRect(inout[i*32:], fold(a, b))
		}
		return nil
	}
}

func pointFold(fold func(a, b geom.Point) geom.Point) func(in, inout []byte, count int, dt *mpi.Datatype) error {
	return func(in, inout []byte, count int, dt *mpi.Datatype) error {
		if dt.Size() != 16 {
			return fmt.Errorf("point operator requires MPI_POINT (16 bytes), got %s", dt.Name())
		}
		for i := 0; i < count; i++ {
			a := geom.Point{X: f64(in[i*16:]), Y: f64(in[i*16+8:])}
			b := geom.Point{X: f64(inout[i*16:]), Y: f64(inout[i*16+8:])}
			r := fold(a, b)
			putF64(inout[i*16:], r.X)
			putF64(inout[i*16+8:], r.Y)
		}
		return nil
	}
}

func lineFold(fold func(a, b [2]geom.Point) [2]geom.Point) func(in, inout []byte, count int, dt *mpi.Datatype) error {
	return func(in, inout []byte, count int, dt *mpi.Datatype) error {
		if dt.Size() != 32 {
			return fmt.Errorf("line operator requires MPI_LINE (32 bytes), got %s", dt.Name())
		}
		for i := 0; i < count; i++ {
			a := decodeSeg(in[i*32:])
			b := decodeSeg(inout[i*32:])
			r := fold(a, b)
			putF64(inout[i*32:], r[0].X)
			putF64(inout[i*32+8:], r[0].Y)
			putF64(inout[i*32+16:], r[1].X)
			putF64(inout[i*32+24:], r[1].Y)
		}
		return nil
	}
}

func f64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

func decodeRect(b []byte) geom.Envelope {
	return geom.Envelope{MinX: f64(b), MinY: f64(b[8:]), MaxX: f64(b[16:]), MaxY: f64(b[24:])}
}

func encodeRect(b []byte, e geom.Envelope) {
	putF64(b, e.MinX)
	putF64(b[8:], e.MinY)
	putF64(b[16:], e.MaxX)
	putF64(b[24:], e.MaxY)
}

func decodeSeg(b []byte) [2]geom.Point {
	return [2]geom.Point{
		{X: f64(b), Y: f64(b[8:])},
		{X: f64(b[16:]), Y: f64(b[24:])},
	}
}

// encodeRectBuffer packs envelopes into an MPI_RECT buffer.
func encodeRectBuffer(rects []geom.Envelope) []byte {
	buf := make([]byte, len(rects)*32)
	for i, e := range rects {
		encodeRect(buf[i*32:], e)
	}
	return buf
}

// decodeRectBuffer unpacks an MPI_RECT buffer.
func decodeRectBuffer(buf []byte) []geom.Envelope {
	out := make([]geom.Envelope, len(buf)/32)
	for i := range out {
		out[i] = decodeRect(buf[i*32:])
	}
	return out
}

// ReduceRects reduces element-wise arrays of rectangles with a spatial
// operator, leaving the result at root (Figure 6's usage pattern). Non-root
// ranks get nil.
func ReduceRects(c *mpi.Comm, rects []geom.Envelope, op *mpi.Op, root int) ([]geom.Envelope, error) {
	res, err := c.Reduce(encodeRectBuffer(rects), len(rects), RectType, op, root)
	if err != nil || res == nil {
		return nil, err
	}
	return decodeRectBuffer(res), nil
}

// AllreduceRects is ReduceRects with the result on every rank — how the
// global grid envelope is computed from per-process local MBR unions.
func AllreduceRects(c *mpi.Comm, rects []geom.Envelope, op *mpi.Op) ([]geom.Envelope, error) {
	res, err := c.Allreduce(encodeRectBuffer(rects), len(rects), RectType, op)
	if err != nil {
		return nil, err
	}
	return decodeRectBuffer(res), nil
}

// ScanRects computes the inclusive prefix reduction of rectangle arrays
// (Figure 13 runs geometric union under MPI_Scan).
func ScanRects(c *mpi.Comm, rects []geom.Envelope, op *mpi.Op) ([]geom.Envelope, error) {
	res, err := c.Scan(encodeRectBuffer(rects), len(rects), RectType, op)
	if err != nil {
		return nil, err
	}
	return decodeRectBuffer(res), nil
}

// GlobalEnvelope unions every rank's local envelope with MPI_UNION and
// returns the result on all ranks — the grid-dimension computation of
// §4.2.2.
func GlobalEnvelope(c *mpi.Comm, local geom.Envelope) (geom.Envelope, error) {
	res, err := AllreduceRects(c, []geom.Envelope{local}, OpRectUnion)
	if err != nil {
		return geom.EmptyEnvelope(), err
	}
	return res[0], nil
}
