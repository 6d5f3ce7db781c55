package geom

import "math"

// Envelope is an axis-aligned minimum bounding rectangle. It doubles as the
// wire representation of the paper's MPI_RECT spatial datatype (a contiguous
// run of four doubles, Table 2) and as the subject of the MPI_MIN, MPI_MAX
// and MPI_UNION spatial reduction operators (§4.2.2).
type Envelope struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyEnvelope returns the identity element of Union: a rectangle that is
// empty and absorbs nothing.
func EmptyEnvelope() Envelope {
	return Envelope{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether the envelope holds no area and no points.
func (e Envelope) IsEmpty() bool { return e.MinX > e.MaxX || e.MinY > e.MaxY }

// Width returns the X extent (0 for empty envelopes).
func (e Envelope) Width() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxX - e.MinX
}

// Height returns the Y extent (0 for empty envelopes).
func (e Envelope) Height() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxY - e.MinY
}

// Area returns Width*Height. This is the "size" ordered by the MPI_MIN and
// MPI_MAX spatial reduction operators.
func (e Envelope) Area() float64 { return e.Width() * e.Height() }

// Union returns the smallest envelope containing both operands. Union is
// associative and commutative with EmptyEnvelope as identity, which is what
// lets MPI run it in a reduction tree.
func (e Envelope) Union(o Envelope) Envelope {
	if e.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return e
	}
	return Envelope{
		MinX: math.Min(e.MinX, o.MinX),
		MinY: math.Min(e.MinY, o.MinY),
		MaxX: math.Max(e.MaxX, o.MaxX),
		MaxY: math.Max(e.MaxY, o.MaxY),
	}
}

// Intersection returns the overlapping region (possibly empty).
func (e Envelope) Intersection(o Envelope) Envelope {
	r := Envelope{
		MinX: math.Max(e.MinX, o.MinX),
		MinY: math.Max(e.MinY, o.MinY),
		MaxX: math.Min(e.MaxX, o.MaxX),
		MaxY: math.Min(e.MaxY, o.MaxY),
	}
	if r.IsEmpty() {
		return EmptyEnvelope()
	}
	return r
}

// Intersects reports whether the two envelopes share any point (boundary
// contact counts, matching the OGC intersects predicate used by the filter
// phase).
func (e Envelope) Intersects(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MaxX && o.MinX <= e.MaxX &&
		e.MinY <= o.MaxY && o.MinY <= e.MaxY
}

// Contains reports whether o lies entirely inside e (boundaries included).
func (e Envelope) Contains(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MinX && o.MaxX <= e.MaxX &&
		e.MinY <= o.MinY && o.MaxY <= e.MaxY
}

// ContainsPoint reports whether (x,y) lies inside or on the boundary of e.
func (e Envelope) ContainsPoint(x, y float64) bool {
	return !e.IsEmpty() &&
		e.MinX <= x && x <= e.MaxX &&
		e.MinY <= y && y <= e.MaxY
}

// EnvelopeOf returns the MBR of a vertex run. It is THE fold — the
// geometry types call it lazily in Envelope(), and the decoders fold each
// coordinate run with FoldPoint as they read it to prime the cache — so
// primed and lazily computed envelopes are bit-identical by construction.
func EnvelopeOf(pts []Point) Envelope {
	e := EmptyEnvelope()
	for i, p := range pts {
		e = FoldPoint(e, i, p.X, p.Y)
	}
	return e
}

// FoldPoint extends e, the envelope of a run's first i vertices, by (x, y).
// Folding a run vertex by vertex from i = 0 is EnvelopeOf, bitwise (NaN and
// signed zeros included), so a decoder can fold while it reads instead of
// walking the run a second time. The body uses the min/max builtins rather
// than math.Min/Max: the NaN/signed-zero ceremony of the latter costs ~4x in
// this hot loop (every parsed vertex passes through here), and coordinates
// are finite in any input the parsers accept as geometry.
func FoldPoint(e Envelope, i int, x, y float64) Envelope {
	if i == 0 {
		return Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y}
	}
	e.MinX = min(e.MinX, x)
	e.MaxX = max(e.MaxX, x)
	e.MinY = min(e.MinY, y)
	e.MaxY = max(e.MaxY, y)
	return e
}

// ExpandToPoint grows the envelope to include (x,y).
func (e Envelope) ExpandToPoint(x, y float64) Envelope {
	if e.IsEmpty() {
		return Envelope{x, y, x, y}
	}
	return Envelope{
		MinX: math.Min(e.MinX, x),
		MinY: math.Min(e.MinY, y),
		MaxX: math.Max(e.MaxX, x),
		MaxY: math.Max(e.MaxY, y),
	}
}

// ExpandBy pads every side by d (negative d shrinks; the result may become
// empty).
func (e Envelope) ExpandBy(d float64) Envelope {
	if e.IsEmpty() {
		return e
	}
	r := Envelope{e.MinX - d, e.MinY - d, e.MaxX + d, e.MaxY + d}
	if r.IsEmpty() {
		return EmptyEnvelope()
	}
	return r
}

// Center returns the midpoint of the envelope.
func (e Envelope) Center() Point {
	return Point{(e.MinX + e.MaxX) / 2, (e.MinY + e.MaxY) / 2}
}

// Corners returns the four corner points in counter-clockwise order
// starting at (MinX, MinY).
func (e Envelope) Corners() [4]Point {
	return [4]Point{
		{e.MinX, e.MinY},
		{e.MaxX, e.MinY},
		{e.MaxX, e.MaxY},
		{e.MinX, e.MaxY},
	}
}

// ToPolygon converts the envelope into an explicit closed ring polygon.
func (e Envelope) ToPolygon() *Polygon {
	c := e.Corners()
	return &Polygon{Shell: []Point{c[0], c[1], c[2], c[3], c[0]}}
}
