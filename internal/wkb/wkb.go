// Package wkb implements the Well-Known Binary encoding of geometries (the
// binary sibling of WKT, paper §2) plus the binary record layouts used by
// the paper's unformatted-file experiments: fixed-size MBR records
// (records.go), and the length-prefixed variable-size record framing
// the binary ingest path reads (core.LengthPrefixed). WKB also serves as
// the serialization format of the geometry exchange buffers in the
// all-to-all spatial partitioning step.
//
// The decoder is file-facing — core.ReadPartition hands it raw record bytes
// — so every length and count field is treated as untrusted: claimed
// element counts are bounded against the bytes actually remaining before
// anything is allocated, and all size arithmetic is done in 64 bits so it
// cannot wrap where int is 32 bits (GOARCH=386, arm).
//
// Like the WKT scanner, decoding is arena-backed: coordinates accumulate
// into a per-Parser slab that decoded geometries slice out of, so steady-
// state decoding of a record stream allocates one slab per ~1k vertices
// instead of one []Point per geometry. A counted vertex run is decoded in
// one pass: bounded against the input once, reserved in the slab at once,
// its envelope folded in the same loop. A Parser may be reused across
// records (geometries returned by earlier calls stay valid — exhausted
// slabs are abandoned to the garbage collector, never recycled), but a
// single Parser must not be shared between goroutines. The package-level
// Decode draws Parsers from a pool and is safe for concurrent use.
//
// Scan is the same walk in fold mode: it builds nothing and returns the
// type, the envelope Decode would prime, and the bytes consumed, with no
// allocation. Because the encoding is canonical — FuzzDecode pins
// Encode(Decode(b)) == b[:n] — a record Scan accepts whole is byte-for-byte
// what Append would write for its decode, which is what licenses core's
// raw exchange path to forward a length-prefixed file's record bytes
// verbatim as frame payloads and decode them once, on the receiving rank.
// The exchange stages decoded geometries the same way: Append into scratch,
// then the raw path's copy.
package wkb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
)

// Geometry type codes, matching the OGC WKB specification.
const (
	codePoint           = 1
	codeLineString      = 2
	codePolygon         = 3
	codeMultiPoint      = 4
	codeMultiLineString = 5
	codeMultiPolygon    = 6
)

// Minimum encoded sizes used to bound untrusted element counts: a vertex is
// two doubles; a collection element is at least its header (byte-order
// marker and type code) and one count word; a MULTIPOINT element is a full
// point geometry; a ring is at least its count word.
const (
	headerBytes            = 5
	minPointBytes          = 16
	minCollectionElemBytes = headerBytes + 4
	minMultiPointElemBytes = headerBytes + minPointBytes
	minRingBytes           = 4
)

// ErrTruncated is returned when the buffer ends before the geometry does —
// including when a count field claims more elements than the remaining
// bytes could possibly hold.
var ErrTruncated = errors.New("wkb: truncated input")

// Append encodes g in little-endian WKB, appending to dst. Point is
// accepted both by value and by pointer, like every other geometry.
func Append(dst []byte, g geom.Geometry) []byte {
	dst = append(dst, 1) // little-endian marker
	switch v := g.(type) {
	case geom.Point:
		dst = appendU32(dst, codePoint)
		dst = appendPoint(dst, v)
	case *geom.Point:
		dst = appendU32(dst, codePoint)
		dst = appendPoint(dst, *v)
	case *geom.LineString:
		dst = appendU32(dst, codeLineString)
		dst = appendPoints(dst, v.Pts)
	case *geom.Polygon:
		dst = appendU32(dst, codePolygon)
		dst = appendPolygonBody(dst, v)
	case *geom.MultiPoint:
		dst = appendU32(dst, codeMultiPoint)
		dst = appendU32(dst, uint32(len(v.Pts)))
		for _, p := range v.Pts {
			dst = Append(dst, p)
		}
	case *geom.MultiLineString:
		dst = appendU32(dst, codeMultiLineString)
		dst = appendU32(dst, uint32(len(v.Lines)))
		for i := range v.Lines {
			dst = Append(dst, &v.Lines[i])
		}
	case *geom.MultiPolygon:
		dst = appendU32(dst, codeMultiPolygon)
		dst = appendU32(dst, uint32(len(v.Polys)))
		for i := range v.Polys {
			dst = Append(dst, &v.Polys[i])
		}
	default:
		panic(fmt.Sprintf("wkb: unsupported geometry %T", g))
	}
	return dst
}

// Encode returns the WKB encoding of g.
func Encode(g geom.Geometry) []byte { return Append(nil, g) }

// parserPool backs the package-level Decode so stateless callers still get
// arena-amortized decoding.
var parserPool = sync.Pool{New: func() any { return NewParser() }}

// Decode parses one WKB geometry from the front of buf and returns it along
// with the number of bytes consumed. It is safe for concurrent use; hot
// loops that decode many records from one goroutine should hold a dedicated
// Parser instead.
func Decode(buf []byte) (geom.Geometry, int, error) {
	p := parserPool.Get().(*Parser)
	g, n, err := p.Decode(buf)
	parserPool.Put(p)
	return g, n, err
}

// slabPoints is the coordinate arena granularity, mirroring internal/wkt:
// one allocation per this many vertices in steady state (16 KiB slabs).
const slabPoints = 1024

// Parser is a reusable WKB decoder. The zero value is ready to use. It owns
// a coordinate arena, so a Parser is single-goroutine; geometries it
// returns remain valid for the Parser's whole lifetime and after it is
// discarded. A consumer decoding on several goroutines holds one Parser per
// goroutine rather than sharing one behind a lock; the arena is the point.
// core decodes on the rank goroutine, one Parser per rank.
type Parser struct {
	// buf and pos are the walk's bounds-checked cursor over the untrusted
	// bytes.
	buf []byte
	pos int

	// slab is the coordinate arena. Every point run — a vertex run or a
	// MULTIPOINT's points — is reserved at its full length (reserve) and
	// handed to its geometry with a full slice expression, so the slab is
	// never truncated below what a returned geometry references; when a run
	// does not fit, a fresh slab is allocated and the old one is left to the
	// geometries referencing it.
	slab []geom.Point

	// fold is Scan's mode: the same walk, folding envelopes without
	// reserving points or constructing geometries.
	fold bool
}

// NewParser returns a Parser with a pre-allocated coordinate arena.
func NewParser() *Parser {
	return &Parser{slab: make([]geom.Point, 0, slabPoints)}
}

// Decode parses one WKB geometry from the front of buf and returns it along
// with the number of bytes consumed. The buf slice is not retained; decoded
// geometries copy their coordinates into the arena.
func (p *Parser) Decode(buf []byte) (geom.Geometry, int, error) {
	p.buf, p.pos = buf, 0
	g, _, _, err := p.geometry()
	n := p.pos
	p.buf = nil // don't pin the caller's (possibly huge, recycled) buffer
	if err != nil {
		return nil, 0, err
	}
	return g, n, nil
}

// reserve sets aside n points at the end of the arena and returns them,
// capped at their length so a caller appending to the run reallocates
// instead of writing into the arena. A run that does not fit the slab
// starts a fresh one of max(slabPoints, n). n must already be bounded by
// the bytes remaining (count does that).
func (p *Parser) reserve(n int) []geom.Point {
	if cap(p.slab)-len(p.slab) < n {
		p.slab = make([]geom.Point, 0, max(slabPoints, n))
	}
	start := len(p.slab)
	p.slab = p.slab[:start+n]
	return p.slab[start : start+n : start+n]
}

// Element-type mismatches inside collections, and the one structural rule
// beyond the byte counts.
const (
	errMultiPointElem = "wkb: MULTIPOINT element is not a point"
	errMultiLineElem  = "wkb: MULTILINESTRING element is not a linestring"
	errMultiPolyElem  = "wkb: MULTIPOLYGON element is not a polygon"
)

var errZeroRings = errors.New("wkb: polygon with zero rings")

func (p *Parser) u32() (uint32, error) {
	if p.pos+4 > len(p.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(p.buf[p.pos:])
	p.pos += 4
	return v, nil
}

func (p *Parser) f64() (float64, error) {
	if p.pos+8 > len(p.buf) {
		return 0, ErrTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.buf[p.pos:]))
	p.pos += 8
	return v, nil
}

// count reads a u32 element count and bounds it against the bytes actually
// remaining: every element occupies at least minSize bytes, so a claimed
// count beyond remaining/minSize is truncation (or corruption) that would
// otherwise reserve unbounded memory — a 9-byte MULTIPOINT header must not
// make the decoder set aside gigabytes. The comparison is done in int64 so
// the product cannot wrap where int is 32 bits.
func (p *Parser) count(minSize int) (int, error) {
	n, err := p.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(minSize) > int64(len(p.buf)-p.pos) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// code consumes one geometry header (byte-order marker plus type code) and
// returns the code.
func (p *Parser) code() (uint32, error) {
	if p.pos >= len(p.buf) {
		return 0, ErrTruncated
	}
	if p.buf[p.pos] != 1 {
		return 0, fmt.Errorf("wkb: unsupported byte order marker %d", p.buf[p.pos])
	}
	p.pos++
	return p.u32()
}

// header consumes one nested geometry header and checks the code against
// want.
func (p *Parser) header(want uint32, mismatch string) error {
	code, err := p.code()
	if err != nil {
		return err
	}
	if code != want {
		return errors.New(mismatch)
	}
	return nil
}

func (p *Parser) point() (geom.Point, error) {
	x, err := p.f64()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := p.f64()
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Point{X: x, Y: y}, nil
}

// Scan walks one WKB geometry at the front of buf without building it: it
// returns the geometry's type, the envelope Decode primes on it, and the
// number of bytes consumed, and allocates nothing on success. It is
// Decode's own walk in fold mode, so it accepts, rejects and words errors
// exactly as Decode does, and the envelope is the one Decode primes.
func Scan(buf []byte) (geom.Type, geom.Envelope, int, error) {
	p := Parser{buf: buf, fold: true}
	_, t, env, err := p.geometry()
	if err != nil {
		return 0, geom.Envelope{}, 0, err
	}
	return t, env, p.pos, nil
}

// pointRun reads a counted vertex sequence in one pass and returns its
// points and envelope. count has already bounded the run against the
// remaining bytes, so its vertices are read with no further checks, the
// envelope folded with geom.FoldPoint as EnvelopeOf folds it. When decoding,
// the n points are reserved in the arena at once and written in the same
// loop; when folding, nothing is reserved or written.
func (p *Parser) pointRun() ([]geom.Point, geom.Envelope, error) {
	n, err := p.count(minPointBytes)
	if err != nil {
		return nil, geom.Envelope{}, err
	}
	var out []geom.Point // stays empty when folding
	if !p.fold {
		out = p.reserve(n)
	}
	run := p.buf[p.pos : p.pos+n*minPointBytes]
	env := geom.EmptyEnvelope()
	for i := 0; i < n; i++ {
		v := run[i*minPointBytes:]
		x := math.Float64frombits(binary.LittleEndian.Uint64(v))
		y := math.Float64frombits(binary.LittleEndian.Uint64(v[8:]))
		if i < len(out) { // doubles as the bounds check
			out[i] = geom.Point{X: x, Y: y}
		}
		env = geom.FoldPoint(env, i, x, y)
	}
	p.pos += len(run)
	return out, env, nil
}

// geometry walks one geometry and returns it with its type and envelope.
// Every constructed geometry has that envelope primed into its cache —
// exactly the value a lazy Envelope() would compute, same fold, same order
// — so its first Envelope() call costs nothing. When folding, nothing is
// constructed and the geometry is nil.
func (p *Parser) geometry() (geom.Geometry, geom.Type, geom.Envelope, error) {
	code, err := p.code()
	if err != nil {
		return nil, 0, geom.Envelope{}, err
	}
	switch code {
	case codePoint:
		pt, err := p.point()
		if err != nil || p.fold {
			return nil, geom.TypePoint, pt.Envelope(), err
		}
		return pt, geom.TypePoint, pt.Envelope(), nil
	case codeLineString:
		pts, env, err := p.pointRun()
		if err != nil || p.fold {
			return nil, geom.TypeLineString, env, err
		}
		ls := &geom.LineString{Pts: pts}
		ls.PrimeEnvelope(env)
		return ls, geom.TypeLineString, env, nil
	case codePolygon:
		var poly *geom.Polygon
		if !p.fold {
			poly = &geom.Polygon{}
		}
		env, err := p.polygonBody(poly)
		if err != nil || p.fold {
			return nil, geom.TypePolygon, env, err
		}
		return poly, geom.TypePolygon, env, nil
	case codeMultiPoint:
		n, err := p.count(minMultiPointElemBytes)
		if err != nil {
			return nil, 0, geom.Envelope{}, err
		}
		// Reserved at once like a vertex run: each element's header and
		// point are read straight into its slot. On an element error the
		// run goes back to the arena (nothing references it yet).
		var pts []geom.Point
		if !p.fold {
			pts = p.reserve(n)
		}
		env := geom.EmptyEnvelope()
		for i := 0; i < n; i++ {
			err := p.header(codePoint, errMultiPointElem)
			var pt geom.Point
			if err == nil {
				pt, err = p.point()
			}
			if err != nil {
				if !p.fold {
					p.slab = p.slab[:len(p.slab)-n]
				}
				return nil, 0, geom.Envelope{}, err
			}
			if !p.fold {
				pts[i] = pt
			}
			env = geom.FoldPoint(env, i, pt.X, pt.Y)
		}
		if p.fold {
			return nil, geom.TypeMultiPoint, env, nil
		}
		mp := &geom.MultiPoint{Pts: pts}
		mp.PrimeEnvelope(env)
		return mp, geom.TypeMultiPoint, env, nil
	case codeMultiLineString:
		n, err := p.count(minCollectionElemBytes)
		if err != nil {
			return nil, 0, geom.Envelope{}, err
		}
		var lines []geom.LineString
		if !p.fold {
			lines = make([]geom.LineString, n)
		}
		env := geom.EmptyEnvelope()
		for i := 0; i < n; i++ {
			if err := p.header(codeLineString, errMultiLineElem); err != nil {
				return nil, 0, geom.Envelope{}, err
			}
			pts, e, err := p.pointRun()
			if err != nil {
				return nil, 0, geom.Envelope{}, err
			}
			if !p.fold {
				lines[i].Pts = pts
				lines[i].PrimeEnvelope(e)
			}
			env = env.Union(e)
		}
		if p.fold {
			return nil, geom.TypeMultiLineString, env, nil
		}
		ml := &geom.MultiLineString{Lines: lines}
		ml.PrimeEnvelope(env)
		return ml, geom.TypeMultiLineString, env, nil
	case codeMultiPolygon:
		n, err := p.count(minCollectionElemBytes)
		if err != nil {
			return nil, 0, geom.Envelope{}, err
		}
		var polys []geom.Polygon
		if !p.fold {
			polys = make([]geom.Polygon, n)
		}
		env := geom.EmptyEnvelope()
		for i := 0; i < n; i++ {
			if err := p.header(codePolygon, errMultiPolyElem); err != nil {
				return nil, 0, geom.Envelope{}, err
			}
			var poly *geom.Polygon
			if !p.fold {
				poly = &polys[i]
			}
			e, err := p.polygonBody(poly)
			if err != nil {
				return nil, 0, geom.Envelope{}, err
			}
			env = env.Union(e)
		}
		if p.fold {
			return nil, geom.TypeMultiPolygon, env, nil
		}
		mp := &geom.MultiPolygon{Polys: polys}
		mp.PrimeEnvelope(env)
		return mp, geom.TypeMultiPolygon, env, nil
	default:
		return nil, 0, geom.Envelope{}, fmt.Errorf("wkb: unsupported geometry code %d", code)
	}
}

// polygonBody reads a polygon's rings into poly (nil when folding) and
// returns the polygon's envelope: its shell's.
func (p *Parser) polygonBody(poly *geom.Polygon) (geom.Envelope, error) {
	nRings, err := p.count(minRingBytes)
	if err != nil {
		return geom.Envelope{}, err
	}
	if nRings == 0 {
		return geom.Envelope{}, errZeroRings
	}
	var shell geom.Envelope
	for i := 0; i < nRings; i++ {
		ring, env, err := p.pointRun()
		if err != nil {
			return geom.Envelope{}, err
		}
		switch {
		case i == 0:
			shell = env
			if poly != nil {
				poly.Shell = ring
				poly.PrimeEnvelope(env)
			}
		case poly != nil:
			poly.Holes = append(poly.Holes, ring)
		}
	}
	return shell, nil
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendPoint(dst []byte, p geom.Point) []byte {
	dst = appendF64(dst, p.X)
	return appendF64(dst, p.Y)
}

func appendPoints(dst []byte, pts []geom.Point) []byte {
	dst = appendU32(dst, uint32(len(pts)))
	for _, p := range pts {
		dst = appendPoint(dst, p)
	}
	return dst
}

func appendPolygonBody(dst []byte, poly *geom.Polygon) []byte {
	dst = appendU32(dst, uint32(1+len(poly.Holes)))
	dst = appendPoints(dst, poly.Shell)
	for _, h := range poly.Holes {
		dst = appendPoints(dst, h)
	}
	return dst
}
