// Package wkb implements the Well-Known Binary encoding of geometries (the
// binary sibling of WKT, paper §2) plus the binary record layouts used by
// the paper's unformatted-file experiments: fixed-size records of MBRs and
// points (records.go), and the length-prefixed variable-size record framing
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
// one pass: reserved in the slab at once, read without per-vertex bounds
// checks, its envelope folded in the same loop. A Parser may be reused across
// records (geometries returned by earlier calls stay valid — exhausted
// slabs are abandoned to the garbage collector, never recycled), but a
// single Parser must not be shared between goroutines. The package-level
// Decode draws Parsers from a pool and is safe for concurrent use.
//
// Scan is Decode's walk without the geometry: the type, the envelope Decode
// would prime, and the bytes consumed, with no allocation. Because the
// encoding is canonical — FuzzDecode pins Encode(Decode(b)) == b[:n] — a
// record Scan accepts whole is byte-for-byte what Append would write for its
// decode, which is what licenses core's raw exchange path to forward a
// length-prefixed file's record bytes verbatim as frame payloads and decode
// them once, on the receiving rank. Size is Append's length without
// encoding, so a caller can reserve a frame exactly.
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
// two doubles; a collection element is at least its byte-order marker, type
// code and one count word; a MULTIPOINT element is a full point geometry; a
// ring is at least its count word.
const (
	minPointBytes          = 16
	minCollectionElemBytes = 9
	minMultiPointElemBytes = 21
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

// headerBytes is one geometry header: byte-order marker plus type code.
// A count word is 4 bytes; a vertex is minPointBytes.
const headerBytes = 5

// Size returns len(Append(nil, g)) without encoding, so a caller can
// reserve exactly the bytes Append will write. It panics on the geometries
// Append panics on.
func Size(g geom.Geometry) int {
	switch v := g.(type) {
	case geom.Point, *geom.Point:
		return headerBytes + minPointBytes
	case *geom.LineString:
		return headerBytes + runSize(v.Pts)
	case *geom.Polygon:
		return headerBytes + polygonBodySize(v)
	case *geom.MultiPoint:
		return headerBytes + 4 + (headerBytes+minPointBytes)*len(v.Pts)
	case *geom.MultiLineString:
		n := headerBytes + 4
		for i := range v.Lines {
			n += headerBytes + runSize(v.Lines[i].Pts)
		}
		return n
	case *geom.MultiPolygon:
		n := headerBytes + 4
		for i := range v.Polys {
			n += headerBytes + polygonBodySize(&v.Polys[i])
		}
		return n
	default:
		panic(fmt.Sprintf("wkb: unsupported geometry %T", g))
	}
}

// runSize is the encoded size of a counted vertex run.
func runSize(pts []geom.Point) int { return 4 + minPointBytes*len(pts) }

func polygonBodySize(poly *geom.Polygon) int {
	n := 4 + runSize(poly.Shell)
	for _, h := range poly.Holes {
		n += runSize(h)
	}
	return n
}

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
	reader

	// slab is the coordinate arena. Every point run — a vertex run or a
	// MULTIPOINT's points — is reserved at its full length (reserve) and
	// handed to its geometry with a full slice expression, so the slab is
	// never truncated below what a returned geometry references; when a run
	// does not fit, a fresh slab is allocated and the old one is left to the
	// geometries referencing it.
	slab []geom.Point

	// runEnv is the MBR of the most recently decoded vertex run, folded by
	// pointRun in its decode loop with geom.FoldPoint. Completed geometries
	// get it primed into their cache: exactly the value a lazy Envelope()
	// would compute — same fold, same order — so their first Envelope() call
	// costs nothing.
	runEnv geom.Envelope
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
	g, err := p.geometry()
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

// reader is the bounds-checked cursor both walks share — Parser, which
// builds geometries, and Scan, which only folds their envelope — so the two
// accept, reject and word errors identically.
type reader struct {
	buf []byte
	pos int
}

// Element-type mismatches inside collections, and the one structural rule
// beyond the byte counts.
const (
	errMultiPointElem = "wkb: MULTIPOINT element is not a point"
	errMultiLineElem  = "wkb: MULTILINESTRING element is not a linestring"
	errMultiPolyElem  = "wkb: MULTIPOLYGON element is not a polygon"
)

var errZeroRings = errors.New("wkb: polygon with zero rings")

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) f64() (float64, error) {
	if r.pos+8 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v, nil
}

// count reads a u32 element count and bounds it against the bytes actually
// remaining: every element occupies at least minSize bytes, so a claimed
// count beyond remaining/minSize is truncation (or corruption) that would
// otherwise reserve unbounded memory — a 9-byte MULTIPOINT header must not
// make the decoder set aside gigabytes. The comparison is done in int64 so
// the product cannot wrap where int is 32 bits.
func (r *reader) count(minSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(minSize) > int64(len(r.buf)-r.pos) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// code consumes one geometry header (byte-order marker plus type code) and
// returns the code.
func (r *reader) code() (uint32, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrTruncated
	}
	if r.buf[r.pos] != 1 {
		return 0, fmt.Errorf("wkb: unsupported byte order marker %d", r.buf[r.pos])
	}
	r.pos++
	return r.u32()
}

// header consumes one nested geometry header and checks the code against
// want.
func (r *reader) header(want uint32, mismatch string) error {
	code, err := r.code()
	if err != nil {
		return err
	}
	if code != want {
		return errors.New(mismatch)
	}
	return nil
}

func (r *reader) point() (geom.Point, error) {
	x, err := r.f64()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := r.f64()
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Point{X: x, Y: y}, nil
}

// Scan walks one WKB geometry at the front of buf without building it: it
// returns the geometry's type, the envelope Decode primes on it, and the
// number of bytes consumed, and allocates nothing on success. It is
// Decode's walk over the same guards, so it accepts, rejects and words
// errors exactly as Decode does, and the envelope matches bitwise — each
// run folded with geom.FoldPoint as EnvelopeOf folds it, a polygon's from
// its shell alone, a collection's the Union of its elements' (FuzzDecode
// pins all of it).
func Scan(buf []byte) (geom.Type, geom.Envelope, int, error) {
	r := reader{buf: buf}
	t, env, err := r.scan()
	if err != nil {
		return 0, geom.Envelope{}, 0, err
	}
	return t, env, r.pos, nil
}

func (r *reader) scan() (geom.Type, geom.Envelope, error) {
	code, err := r.code()
	if err != nil {
		return 0, geom.Envelope{}, err
	}
	switch code {
	case codePoint:
		p, err := r.point()
		return geom.TypePoint, p.Envelope(), err
	case codeLineString:
		env, err := r.scanRun()
		return geom.TypeLineString, env, err
	case codePolygon:
		env, err := r.scanPolygonBody()
		return geom.TypePolygon, env, err
	case codeMultiPoint:
		n, err := r.count(minMultiPointElemBytes)
		if err != nil {
			return 0, geom.Envelope{}, err
		}
		env := geom.EmptyEnvelope()
		for i := 0; i < n; i++ {
			if err := r.header(codePoint, errMultiPointElem); err != nil {
				return 0, geom.Envelope{}, err
			}
			p, err := r.point()
			if err != nil {
				return 0, geom.Envelope{}, err
			}
			env = geom.FoldPoint(env, i, p.X, p.Y)
		}
		return geom.TypeMultiPoint, env, nil
	case codeMultiLineString:
		env, err := r.scanCollection(codeLineString, errMultiLineElem)
		return geom.TypeMultiLineString, env, err
	case codeMultiPolygon:
		env, err := r.scanCollection(codePolygon, errMultiPolyElem)
		return geom.TypeMultiPolygon, env, err
	default:
		return 0, geom.Envelope{}, fmt.Errorf("wkb: unsupported geometry code %d", code)
	}
}

// scanRun is pointRun without the arena. count has already bounded the run
// against the remaining bytes, so its vertices are read with no further
// checks.
func (r *reader) scanRun() (geom.Envelope, error) {
	n, err := r.count(minPointBytes)
	if err != nil {
		return geom.Envelope{}, err
	}
	env := geom.EmptyEnvelope()
	run := r.buf[r.pos : r.pos+n*minPointBytes]
	for i := 0; i < n; i++ {
		v := run[i*minPointBytes:]
		env = geom.FoldPoint(env, i,
			math.Float64frombits(binary.LittleEndian.Uint64(v)),
			math.Float64frombits(binary.LittleEndian.Uint64(v[8:])))
	}
	r.pos += len(run)
	return env, nil
}

// scanPolygonBody is polygonBody without the arena: the envelope is the
// shell's, as Decode primes it.
func (r *reader) scanPolygonBody() (geom.Envelope, error) {
	nRings, err := r.count(minRingBytes)
	if err != nil {
		return geom.Envelope{}, err
	}
	if nRings == 0 {
		return geom.Envelope{}, errZeroRings
	}
	var shell geom.Envelope
	for i := 0; i < nRings; i++ {
		env, err := r.scanRun()
		if err != nil {
			return geom.Envelope{}, err
		}
		if i == 0 {
			shell = env
		}
	}
	return shell, nil
}

// scanCollection walks a counted collection of linestrings or polygons
// (elem), unioning their envelopes as Decode does for MULTILINESTRING and
// MULTIPOLYGON. (A method value for the element body would move the reader
// to the heap.)
func (r *reader) scanCollection(elem uint32, mismatch string) (geom.Envelope, error) {
	n, err := r.count(minCollectionElemBytes)
	if err != nil {
		return geom.Envelope{}, err
	}
	env := geom.EmptyEnvelope()
	for i := 0; i < n; i++ {
		if err := r.header(elem, mismatch); err != nil {
			return geom.Envelope{}, err
		}
		var e geom.Envelope
		if elem == codeLineString {
			e, err = r.scanRun()
		} else {
			e, err = r.scanPolygonBody()
		}
		if err != nil {
			return geom.Envelope{}, err
		}
		env = env.Union(e)
	}
	return env, nil
}

// pointRun decodes a counted vertex sequence into the arena in one pass.
// count has already bounded the run against the remaining bytes, so its n
// points are reserved at once and its vertices are read with no further
// checks, as scanRun does, folding runEnv in the same loop.
func (p *Parser) pointRun() ([]geom.Point, error) {
	n, err := p.count(minPointBytes)
	if err != nil {
		return nil, err
	}
	out := p.reserve(n)
	run := p.buf[p.pos : p.pos+n*minPointBytes]
	env := geom.EmptyEnvelope()
	for i := range out {
		v := run[i*minPointBytes:]
		x := math.Float64frombits(binary.LittleEndian.Uint64(v))
		y := math.Float64frombits(binary.LittleEndian.Uint64(v[8:]))
		out[i] = geom.Point{X: x, Y: y}
		env = geom.FoldPoint(env, i, x, y)
	}
	p.pos += len(run)
	p.runEnv = env
	return out, nil
}

func (p *Parser) geometry() (geom.Geometry, error) {
	code, err := p.code()
	if err != nil {
		return nil, err
	}
	switch code {
	case codePoint:
		return p.point()
	case codeLineString:
		pts, err := p.pointRun()
		if err != nil {
			return nil, err
		}
		ls := &geom.LineString{Pts: pts}
		ls.PrimeEnvelope(p.runEnv)
		return ls, nil
	case codePolygon:
		poly := &geom.Polygon{}
		if err := p.polygonBody(poly); err != nil {
			return nil, err
		}
		return poly, nil
	case codeMultiPoint:
		n, err := p.count(minMultiPointElemBytes)
		if err != nil {
			return nil, err
		}
		// Reserved at once like a vertex run: each element's header and
		// point are read straight into its slot, the envelope folded as Scan
		// folds it. On an element error the run goes back to the arena
		// (nothing references it yet).
		pts := p.reserve(n)
		env := geom.EmptyEnvelope()
		for i := range pts {
			err := p.header(codePoint, errMultiPointElem)
			if err == nil {
				pts[i], err = p.point()
			}
			if err != nil {
				p.slab = p.slab[:len(p.slab)-n]
				return nil, err
			}
			env = geom.FoldPoint(env, i, pts[i].X, pts[i].Y)
		}
		mp := &geom.MultiPoint{Pts: pts}
		mp.PrimeEnvelope(env)
		return mp, nil
	case codeMultiLineString:
		n, err := p.count(minCollectionElemBytes)
		if err != nil {
			return nil, err
		}
		lines := make([]geom.LineString, 0, n)
		env := geom.EmptyEnvelope()
		for i := 0; i < n; i++ {
			if err := p.header(codeLineString, errMultiLineElem); err != nil {
				return nil, err
			}
			pts, err := p.pointRun()
			if err != nil {
				return nil, err
			}
			lines = append(lines, geom.LineString{Pts: pts})
			lines[len(lines)-1].PrimeEnvelope(p.runEnv)
			env = env.Union(p.runEnv)
		}
		ml := &geom.MultiLineString{Lines: lines}
		ml.PrimeEnvelope(env)
		return ml, nil
	case codeMultiPolygon:
		n, err := p.count(minCollectionElemBytes)
		if err != nil {
			return nil, err
		}
		polys := make([]geom.Polygon, 0, n)
		env := geom.EmptyEnvelope()
		for i := 0; i < n; i++ {
			if err := p.header(codePolygon, errMultiPolyElem); err != nil {
				return nil, err
			}
			polys = append(polys, geom.Polygon{})
			if err := p.polygonBody(&polys[len(polys)-1]); err != nil {
				return nil, err
			}
			env = env.Union(polys[len(polys)-1].Envelope())
		}
		mp := &geom.MultiPolygon{Polys: polys}
		mp.PrimeEnvelope(env)
		return mp, nil
	default:
		return nil, fmt.Errorf("wkb: unsupported geometry code %d", code)
	}
}

func (p *Parser) polygonBody(poly *geom.Polygon) error {
	nRings, err := p.count(minRingBytes)
	if err != nil {
		return err
	}
	if nRings == 0 {
		return errZeroRings
	}
	for i := 0; i < nRings; i++ {
		ring, err := p.pointRun()
		if err != nil {
			return err
		}
		if i == 0 {
			poly.Shell = ring
			poly.PrimeEnvelope(p.runEnv)
		} else {
			poly.Holes = append(poly.Holes, ring)
		}
	}
	return nil
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
