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
// instead of one []Point per geometry. A Parser may be reused across
// records (geometries returned by earlier calls stay valid — exhausted
// slabs are abandoned to the garbage collector, never recycled), but a
// single Parser must not be shared between goroutines. The package-level
// Decode draws Parsers from a pool and is safe for concurrent use.
//
// A counted vertex run is decoded in one pass: bounded against the input
// once, reserved in the slab at once, and read four vertices per step,
// each block stored and folded into the envelope (geom.FoldBlock) in the
// same loop. The envelope is geom.EnvelopeOf's, bit for bit, NaN
// coordinates included: the fold is order-free, and every NaN side is
// math.NaN()'s bits (geom.CanonicalNaN). A hole's envelope is never read,
// so no hole is folded.
//
// Scan is the same walk in scan mode: it builds nothing and returns the
// type, the envelope Decode would prime, and the bytes consumed, with no
// allocation. DecodePrimed is the walk's third mode: a caller that already
// holds that envelope (core decodes a rank's own records with Scan's)
// builds the geometry without folding its run a second time. Because the
// encoding is canonical — FuzzDecode pins Encode(Decode(b)) == b[:n] — a
// record Scan accepts whole is byte-for-byte what Append would write for
// its decode, which is what licenses core's raw exchange path to forward a
// length-prefixed file's record bytes verbatim as frame payloads and
// decode them once, on the receiving rank. The exchange stages decoded
// geometries the same way: Append into scratch, then the raw path's copy.
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

	// scan is Scan's mode: the same walk, folding envelopes without
	// reserving points or constructing geometries.
	scan bool
	// primed is DecodePrimed's mode: known is the geometry's envelope, so a
	// single-run geometry (LINESTRING, POLYGON, MULTIPOINT) is built
	// without folding and known is primed into its cache.
	primed bool
	known  geom.Envelope
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

// vertex reads one little-endian coordinate pair from the front of b.
func vertex(b []byte) geom.Point {
	_ = b[minPointBytes-1]
	return geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
}

func (p *Parser) point() (geom.Point, error) {
	if p.pos+minPointBytes > len(p.buf) {
		return geom.Point{}, ErrTruncated
	}
	pt := vertex(p.buf[p.pos:])
	p.pos += minPointBytes
	return pt, nil
}

// Scan walks one WKB geometry at the front of buf without building it: it
// returns the geometry's type, the envelope Decode primes on it, and the
// number of bytes consumed, and allocates nothing on success. It is
// Decode's own walk in scan mode, so it accepts, rejects and words errors
// exactly as Decode does, and the envelope is the one Decode primes.
func Scan(buf []byte) (geom.Type, geom.Envelope, int, error) {
	p := Parser{buf: buf, scan: true}
	_, t, env, err := p.geometry()
	if err != nil {
		return 0, geom.Envelope{}, 0, err
	}
	return t, env, p.pos, nil
}

// DecodePrimed is Decode for a caller that already holds the geometry's
// envelope: env must be the one Decode would prime on buf — Scan's, or the
// Envelope() of the geometry buf encodes. It is Decode's own walk in primed
// mode: a LINESTRING's, POLYGON's or MULTIPOINT's coordinates are read
// without folding and env is primed in their place; a MULTILINESTRING or
// MULTIPOLYGON still folds, because its members' envelopes are primed too.
// The bytes are checked, and errors worded, exactly as Decode does.
func (p *Parser) DecodePrimed(buf []byte, env geom.Envelope) (geom.Geometry, int, error) {
	p.primed, p.known = true, env
	g, n, err := p.Decode(buf)
	p.primed = false
	return g, n, err
}

// pointRun reads a counted vertex sequence in one pass and returns its
// points and, when fold is set, its envelope (EmptyEnvelope otherwise).
// count has already bounded the run against the remaining bytes, so its
// vertices are read with no further checks, four per step: each block is
// stored (when decoding) and folded with geom.FoldBlock, the tail with
// geom.FoldPoint, and the result finished with geom.CanonicalNaN — the
// steps of EnvelopeOf, whose value the envelope is, bit for bit. When
// scanning nothing is reserved or written. A run whose envelope nobody
// reads (a hole's, or a primed one's) is not folded: decoding only copies
// it, scanning only steps over it.
func (p *Parser) pointRun(fold bool) ([]geom.Point, geom.Envelope, error) {
	n, err := p.count(minPointBytes)
	if err != nil {
		return nil, geom.Envelope{}, err
	}
	run := p.buf[p.pos : p.pos+n*minPointBytes]
	p.pos += len(run)
	var out []geom.Point // stays empty when scanning
	if !p.scan {
		out = p.reserve(n)
	}
	env := geom.EmptyEnvelope()
	if !fold {
		for i := range out {
			out[i] = vertex(run[i*minPointBytes:])
		}
		return out, env, nil
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		b := (*[4 * minPointBytes]byte)(run[i*minPointBytes:])
		v0, v1, v2, v3 := vertex(b[0:]), vertex(b[16:]), vertex(b[32:]), vertex(b[48:])
		if i < len(out) { // doubles as the bounds check
			q := (*[4]geom.Point)(out[i:])
			q[0], q[1], q[2], q[3] = v0, v1, v2, v3
		}
		env = geom.FoldBlock(env, v0.X, v0.Y, v1.X, v1.Y, v2.X, v2.Y, v3.X, v3.Y)
	}
	for ; i < n; i++ {
		v := vertex(run[i*minPointBytes:])
		if i < len(out) {
			out[i] = v
		}
		env = geom.FoldPoint(env, i, v.X, v.Y)
	}
	return out, geom.CanonicalNaN(env), nil
}

// geometry walks one geometry and returns it with its type and envelope.
// Every constructed geometry has that envelope primed into its cache —
// exactly the value a lazy Envelope() would compute, by the fold's
// order-free contract — so its first Envelope() call costs nothing. When
// scanning, nothing is constructed and the geometry is nil; in primed mode
// the known envelope stands in for a single run's fold.
func (p *Parser) geometry() (geom.Geometry, geom.Type, geom.Envelope, error) {
	code, err := p.code()
	if err != nil {
		return nil, 0, geom.Envelope{}, err
	}
	switch code {
	case codePoint:
		pt, err := p.point()
		if err != nil || p.scan {
			return nil, geom.TypePoint, pt.Envelope(), err
		}
		return pt, geom.TypePoint, pt.Envelope(), nil
	case codeLineString:
		pts, env, err := p.pointRun(!p.primed)
		if err != nil || p.scan {
			return nil, geom.TypeLineString, env, err
		}
		if p.primed {
			env = p.known
		}
		ls := &geom.LineString{Pts: pts}
		ls.PrimeEnvelope(env)
		return ls, geom.TypeLineString, env, nil
	case codePolygon:
		var poly *geom.Polygon
		if !p.scan {
			poly = &geom.Polygon{}
		}
		env, err := p.polygonBody(poly, !p.primed)
		if err != nil || p.scan {
			return nil, geom.TypePolygon, env, err
		}
		if p.primed {
			env = p.known
		}
		poly.PrimeEnvelope(env)
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
		if !p.scan {
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
				if !p.scan {
					p.slab = p.slab[:len(p.slab)-n]
				}
				return nil, 0, geom.Envelope{}, err
			}
			if !p.scan {
				pts[i] = pt
			}
			if !p.primed {
				env = geom.FoldPoint(env, i, pt.X, pt.Y)
			}
		}
		env = geom.CanonicalNaN(env)
		if p.scan {
			return nil, geom.TypeMultiPoint, env, nil
		}
		if p.primed {
			env = p.known
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
		if !p.scan {
			lines = make([]geom.LineString, n)
		}
		env := geom.EmptyEnvelope()
		for i := 0; i < n; i++ {
			if err := p.header(codeLineString, errMultiLineElem); err != nil {
				return nil, 0, geom.Envelope{}, err
			}
			pts, e, err := p.pointRun(true)
			if err != nil {
				return nil, 0, geom.Envelope{}, err
			}
			if !p.scan {
				lines[i].Pts = pts
				lines[i].PrimeEnvelope(e)
			}
			env = env.Union(e)
		}
		if p.scan {
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
		if !p.scan {
			polys = make([]geom.Polygon, n)
		}
		env := geom.EmptyEnvelope()
		for i := 0; i < n; i++ {
			if err := p.header(codePolygon, errMultiPolyElem); err != nil {
				return nil, 0, geom.Envelope{}, err
			}
			var poly *geom.Polygon
			if !p.scan {
				poly = &polys[i]
			}
			e, err := p.polygonBody(poly, true)
			if err != nil {
				return nil, 0, geom.Envelope{}, err
			}
			if poly != nil {
				poly.PrimeEnvelope(e)
			}
			env = env.Union(e)
		}
		if p.scan {
			return nil, geom.TypeMultiPolygon, env, nil
		}
		mp := &geom.MultiPolygon{Polys: polys}
		mp.PrimeEnvelope(env)
		return mp, geom.TypeMultiPolygon, env, nil
	default:
		return nil, 0, geom.Envelope{}, fmt.Errorf("wkb: unsupported geometry code %d", code)
	}
}

// polygonBody reads a polygon's rings into poly (nil when scanning) and
// returns the polygon's envelope, its shell's, when fold is set; the caller
// primes it. A hole's envelope is never read, so no hole is folded.
func (p *Parser) polygonBody(poly *geom.Polygon, fold bool) (geom.Envelope, error) {
	nRings, err := p.count(minRingBytes)
	if err != nil {
		return geom.Envelope{}, err
	}
	if nRings == 0 {
		return geom.Envelope{}, errZeroRings
	}
	var shell geom.Envelope
	for i := 0; i < nRings; i++ {
		ring, env, err := p.pointRun(fold && i == 0)
		if err != nil {
			return geom.Envelope{}, err
		}
		switch {
		case i == 0:
			shell = env
			if poly != nil {
				poly.Shell = ring
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
