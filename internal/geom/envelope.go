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

// EnvelopeOf returns the MBR of a vertex run: the geometry types call it
// lazily in Envelope(), and the decoders prime the cache with the same fold
// as they read each run. The fold is order-free by definition. Each side is
// the min or max builtin over the run's coordinates, which picks the same
// value in any order and grouping — -0 below +0, ±Inf ordinary — except
// that which NaN a NaN side carries depends on the order. CanonicalNaN
// settles that: every NaN side of a run envelope is math.NaN()'s bits.
// So a fold over any split of the run into FoldBlock and FoldPoint steps,
// finished by CanonicalNaN, is EnvelopeOf bit for bit. Union keeps the
// contract (math.Min and math.Max return math.NaN()'s bits), so a
// collection's envelope, the union of its members', carries it too. A
// Point's envelope is its coordinates as they are.
func EnvelopeOf(pts []Point) Envelope {
	e := EmptyEnvelope()
	i := 0
	for ; i+4 <= len(pts); i += 4 {
		q := (*[4]Point)(pts[i:])
		e = FoldBlock(e, q[0].X, q[0].Y, q[1].X, q[1].Y, q[2].X, q[2].Y, q[3].X, q[3].Y)
	}
	for ; i < len(pts); i++ {
		e = FoldPoint(e, i, pts[i].X, pts[i].Y)
	}
	return CanonicalNaN(e)
}

// FoldBlock extends e by four vertices at once. Each side takes one min
// over a pairwise tree of the block, so the chain through the accumulator
// is one step per four vertices rather than four: the fold's throughput is
// no longer bound by that chain's latency. A max side is written as the
// negated min of the negated coordinates, which is max for every non-NaN
// pair, ±0 included, and negates each value once where the builtin max
// negates each operand and result of each of the four steps (~15 % faster
// on amd64). e may be EmptyEnvelope (the min of +Inf and x is x).
func FoldBlock(e Envelope, x0, y0, x1, y1, x2, y2, x3, y3 float64) Envelope {
	e.MinX = min(e.MinX, min(min(x0, x1), min(x2, x3)))
	e.MaxX = -min(-e.MaxX, min(min(-x0, -x1), min(-x2, -x3)))
	e.MinY = min(e.MinY, min(min(y0, y1), min(y2, y3)))
	e.MaxY = -min(-e.MaxY, min(min(-y0, -y1), min(-y2, -y3)))
	return e
}

// FoldPoint extends e, the envelope of a run's first i vertices, by (x, y):
// the fold's tail step, and the whole fold of a scanner that reads one
// vertex at a time. At i = 0 it starts the envelope at (x, y), whatever e
// holds. The body uses the min/max builtins rather than math.Min/Max, whose
// NaN/-Inf/signed-zero ceremony costs ~4x in this hot loop; the builtins
// propagate every NaN, which CanonicalNaN then canonicalizes. A run folded
// from finite coordinates (the WKT scanner's only kind) has no NaN side and
// needs no CanonicalNaN.
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

// CanonicalNaN finishes a fold: each NaN side becomes math.NaN()'s bits,
// whichever NaN the min/max steps happened to carry.
func CanonicalNaN(e Envelope) Envelope {
	if e.MinX != e.MinX {
		e.MinX = math.NaN()
	}
	if e.MinY != e.MinY {
		e.MinY = math.NaN()
	}
	if e.MaxX != e.MaxX {
		e.MaxX = math.NaN()
	}
	if e.MaxY != e.MaxY {
		e.MaxY = math.NaN()
	}
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
