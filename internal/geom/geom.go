// Package geom is the reproduction's geometry engine — the stand-in for the
// GEOS C++ library that MPI-Vector-IO calls internally (paper §2). It
// provides the OGC simple-feature types the paper's datasets use (points,
// line strings, polygons and their Multi* collections), envelope (MBR)
// algebra, and the intersection predicates needed by the filter-and-refine
// framework.
//
// Geometries are treated as immutable once built: the vertex-bearing types
// memoize their envelope on first Envelope() call (grid partitioning and
// the join filter phase ask for the MBR of every geometry, often more than
// once — without the cache each ask rescans every vertex). Geometries
// produced by the WKT and WKB parsers arrive with the cache already primed
// (the scanners accumulate the MBR while touching every coordinate anyway
// — see the PrimeEnvelope methods), so for them Envelope() never scans and
// never writes. Two caveats remain for literal-constructed geometries.
// Mutating Pts, Shell, Holes, Lines or Polys after Envelope() has been
// called (or after PrimeEnvelope) leaves a stale cache. And because the
// first Envelope() call writes the cache, it is not safe to make that
// first call concurrently from multiple goroutines — a literal geometry
// shared across goroutines should have Envelope() called once before it is
// shared (in this library every geometry is owned by a single rank, so
// this never arises internally).
package geom

import (
	"fmt"
	"math"
)

// Type enumerates the supported OGC geometry types.
type Type int

const (
	TypePoint Type = iota
	TypeLineString
	TypePolygon
	TypeMultiPoint
	TypeMultiLineString
	TypeMultiPolygon
)

// String returns the WKT keyword for the type.
func (t Type) String() string {
	switch t {
	case TypePoint:
		return "POINT"
	case TypeLineString:
		return "LINESTRING"
	case TypePolygon:
		return "POLYGON"
	case TypeMultiPoint:
		return "MULTIPOINT"
	case TypeMultiLineString:
		return "MULTILINESTRING"
	case TypeMultiPolygon:
		return "MULTIPOLYGON"
	default:
		return fmt.Sprintf("TYPE(%d)", int(t))
	}
}

// Geometry is the common interface of all shapes. It deliberately mirrors
// the small slice of the GEOS Geometry class the paper's system relies on:
// type inspection, bounding rectangles, and vertex counting (the unit of the
// parsing and refinement cost models). UserData carries the non-spatial
// attributes of a feature, as in GEOS (paper §4.3).
type Geometry interface {
	// GeomType returns the OGC type tag.
	GeomType() Type
	// Envelope returns the minimum bounding rectangle.
	Envelope() Envelope
	// NumPoints returns the total number of vertices.
	NumPoints() int
}

// Point is a single 2D coordinate.
type Point struct {
	X, Y float64
}

// GeomType implements Geometry.
func (p Point) GeomType() Type { return TypePoint }

// Envelope implements Geometry; a point's MBR is degenerate.
func (p Point) Envelope() Envelope { return Envelope{p.X, p.Y, p.X, p.Y} }

// NumPoints implements Geometry.
func (p Point) NumPoints() int { return 1 }

// envCache memoizes a geometry's minimum bounding rectangle. The zero
// value means "not computed yet", so struct-literal construction keeps
// working and two geometries with equal vertices stay deeply equal until
// one of them is asked for its envelope. Scanners that touch every
// coordinate anyway (the WKT and WKB parsers) prime the cache at parse
// time via the PrimeEnvelope methods, so the first Envelope() call on a
// freshly parsed geometry is free — and, because the cache is already
// written, no longer a data race when the geometry crosses goroutines.
// A primed value must be the lazy one bit for bit. A scanner may fold in
// any order and grouping to get it, because the fold is order-free and
// every NaN side is math.NaN()'s bits (see EnvelopeOf); a scanner that
// already holds the value (a decoder handed Scan's envelope) primes it
// without folding at all.
type envCache struct {
	env Envelope
	ok  bool
}

// get returns the cached envelope, computing it with f on first use.
func (c *envCache) get(f func() Envelope) Envelope {
	if !c.ok {
		c.env, c.ok = f(), true
	}
	return c.env
}

// LineString is an ordered sequence of at least two vertices.
type LineString struct {
	Pts []Point

	cache envCache
}

// GeomType implements Geometry.
func (l *LineString) GeomType() Type { return TypeLineString }

// Envelope implements Geometry. The MBR is computed once and cached.
func (l *LineString) Envelope() Envelope {
	return l.cache.get(func() Envelope { return EnvelopeOf(l.Pts) })
}

// PrimeEnvelope seeds the envelope cache with a precomputed MBR. e must
// equal EnvelopeOf(l.Pts) bit for bit (a NaN side is math.NaN()'s bits);
// it is for parsers that fold the MBR while scanning the coordinates
// anyway, or already hold it.
func (l *LineString) PrimeEnvelope(e Envelope) { l.cache = envCache{env: e, ok: true} }

// NumPoints implements Geometry.
func (l *LineString) NumPoints() int { return len(l.Pts) }

// Polygon is a shell ring with optional hole rings. Rings are closed: the
// first and last vertex coincide, as in WKT.
type Polygon struct {
	Shell []Point
	Holes [][]Point

	cache envCache
}

// GeomType implements Geometry.
func (p *Polygon) GeomType() Type { return TypePolygon }

// Envelope implements Geometry (holes lie inside the shell by definition).
// The MBR is computed once and cached.
func (p *Polygon) Envelope() Envelope {
	return p.cache.get(func() Envelope { return EnvelopeOf(p.Shell) })
}

// PrimeEnvelope seeds the envelope cache with a precomputed MBR. e must
// equal EnvelopeOf(p.Shell) bit for bit (holes lie inside the shell).
func (p *Polygon) PrimeEnvelope(e Envelope) { p.cache = envCache{env: e, ok: true} }

// NumPoints implements Geometry.
func (p *Polygon) NumPoints() int {
	n := len(p.Shell)
	for _, h := range p.Holes {
		n += len(h)
	}
	return n
}

// Area returns the polygon area (shell minus holes), always non-negative.
func (p *Polygon) Area() float64 {
	a := math.Abs(ringArea(p.Shell))
	for _, h := range p.Holes {
		a -= math.Abs(ringArea(h))
	}
	return a
}

// ringArea returns the signed area of a closed ring via the shoelace formula.
func ringArea(ring []Point) float64 {
	var s float64
	for i := 1; i < len(ring); i++ {
		s += ring[i-1].X*ring[i].Y - ring[i].X*ring[i-1].Y
	}
	return s / 2
}

// MultiPoint is a collection of points.
type MultiPoint struct {
	Pts []Point

	cache envCache
}

// GeomType implements Geometry.
func (m *MultiPoint) GeomType() Type { return TypeMultiPoint }

// Envelope implements Geometry. The MBR is computed once and cached.
func (m *MultiPoint) Envelope() Envelope {
	return m.cache.get(func() Envelope { return EnvelopeOf(m.Pts) })
}

// PrimeEnvelope seeds the envelope cache with a precomputed MBR. e must
// equal EnvelopeOf(m.Pts) bit for bit.
func (m *MultiPoint) PrimeEnvelope(e Envelope) { m.cache = envCache{env: e, ok: true} }

// NumPoints implements Geometry.
func (m *MultiPoint) NumPoints() int { return len(m.Pts) }

// MultiLineString is a collection of line strings.
type MultiLineString struct {
	Lines []LineString

	cache envCache
}

// GeomType implements Geometry.
func (m *MultiLineString) GeomType() Type { return TypeMultiLineString }

// Envelope implements Geometry. The MBR is computed once and cached (the
// member line strings cache theirs too).
func (m *MultiLineString) Envelope() Envelope {
	return m.cache.get(func() Envelope {
		e := EmptyEnvelope()
		for i := range m.Lines {
			e = e.Union(m.Lines[i].Envelope())
		}
		return e
	})
}

// PrimeEnvelope seeds the envelope cache with a precomputed MBR. e must
// equal the Union of the member envelopes bit for bit; a parser priming the
// collection should prime the members too, so the cache state matches a
// lazily computed one.
func (m *MultiLineString) PrimeEnvelope(e Envelope) { m.cache = envCache{env: e, ok: true} }

// NumPoints implements Geometry.
func (m *MultiLineString) NumPoints() int {
	n := 0
	for i := range m.Lines {
		n += m.Lines[i].NumPoints()
	}
	return n
}

// MultiPolygon is a collection of polygons.
type MultiPolygon struct {
	Polys []Polygon

	cache envCache
}

// GeomType implements Geometry.
func (m *MultiPolygon) GeomType() Type { return TypeMultiPolygon }

// Envelope implements Geometry. The MBR is computed once and cached (the
// member polygons cache theirs too).
func (m *MultiPolygon) Envelope() Envelope {
	return m.cache.get(func() Envelope {
		e := EmptyEnvelope()
		for i := range m.Polys {
			e = e.Union(m.Polys[i].Envelope())
		}
		return e
	})
}

// PrimeEnvelope seeds the envelope cache with a precomputed MBR. e must
// equal the Union of the member envelopes bit for bit; a parser priming the
// collection should prime the members too, so the cache state matches a
// lazily computed one.
func (m *MultiPolygon) PrimeEnvelope(e Envelope) { m.cache = envCache{env: e, ok: true} }

// NumPoints implements Geometry.
func (m *MultiPolygon) NumPoints() int {
	n := 0
	for i := range m.Polys {
		n += m.Polys[i].NumPoints()
	}
	return n
}

// Feature pairs a geometry with its non-spatial attributes, mirroring how
// the paper stashes attribute text in the GEOS userdata field (§4.3).
type Feature struct {
	Geom     Geometry
	UserData string
}
