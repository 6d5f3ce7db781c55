// Package wkt reads and writes the Well-Known Text markup for vector
// geometries (OGC simple features), the primary on-disk format of the
// paper's datasets. The parser is a hand-rolled recursive-descent scanner:
// WKT records in the OSM extracts range from tens of bytes to >10 MB, so it
// avoids regexp and string splitting and works directly on byte slices.
//
// The scanner is allocation-free in steady state: keywords are matched
// case-insensitively in place, short decimal literals are converted exactly
// in the scan that finds them (any other literal goes to strconv without a
// string copy), and coordinates accumulate into a per-Parser slab arena that
// geometries slice out of, each run's envelope folded as the run fills. A
// Parser may be reused across records (geometries returned by earlier calls
// stay valid — exhausted slabs are abandoned to the garbage collector, never
// recycled), but a single Parser must not be shared between goroutines. The
// package-level Parse draws Parsers from a pool and is safe for concurrent
// use.
package wkt

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/geom"
)

// ErrEmpty is returned when the input contains no geometry text.
var ErrEmpty = errors.New("wkt: empty input")

// SyntaxError describes a malformed WKT record.
type SyntaxError struct {
	Offset int    // byte offset of the problem
	Msg    string // what went wrong
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("wkt: syntax error at byte %d: %s", e.Offset, e.Msg)
}

// parserPool backs the package-level Parse so stateless callers still get
// arena-amortized parsing.
var parserPool = sync.Pool{New: func() any { return NewParser() }}

// Parse decodes one WKT record into a geometry. It is safe for concurrent
// use; hot loops that parse many records from one goroutine should hold a
// dedicated Parser instead.
func Parse(data []byte) (geom.Geometry, error) {
	p := parserPool.Get().(*Parser)
	g, err := p.Parse(data)
	parserPool.Put(p)
	return g, err
}

// ParseString is Parse for string inputs.
func ParseString(s string) (geom.Geometry, error) { return Parse([]byte(s)) }

// slabPoints is the coordinate arena granularity: one allocation per this
// many vertices in steady state (16 KiB slabs).
const slabPoints = 1024

// Parser is a reusable WKT scanner. The zero value is ready to use. It
// owns a coordinate arena, so a Parser is single-goroutine; geometries it
// returns remain valid for the Parser's whole lifetime and after it is
// discarded. Parallel consumers hold one Parser per goroutine — core's
// NewWKTParser gives each rank its own — rather than sharing one behind a
// lock; the arena is the point.
type Parser struct {
	buf []byte
	pos int

	// slab is the coordinate arena. Completed point runs are sliced out
	// with a full slice expression and handed to geometries, so the slab is
	// never truncated below its used length; when it fills, a fresh slab is
	// allocated and the old one is left to the geometries referencing it.
	slab []geom.Point
	// mark is the start of the in-progress point run within slab.
	mark int

	// runEnv is the MBR of the most recently completed point run. The run's
	// scanner folds it into a local with geom.FoldPoint as each point is
	// pushed and hands it to takeRun (not a per-push store into this field —
	// that costs real throughput in the scan hot loop). Completed geometries
	// get it primed into their cache: exactly the value a lazy Envelope()
	// would compute — same fold, same order — so their first Envelope() call
	// costs nothing.
	runEnv geom.Envelope

	// ringEnvs collects the per-ring envelopes of the current ring list —
	// reusable scratch, consumed by the caller before the next ringList.
	ringEnvs []geom.Envelope
}

// NewParser returns a Parser with a pre-allocated coordinate arena.
func NewParser() *Parser {
	return &Parser{slab: make([]geom.Point, 0, slabPoints)}
}

// Parse decodes one WKT record into a geometry.
func (p *Parser) Parse(data []byte) (geom.Geometry, error) {
	g, err := p.parse(data)
	p.buf = nil // don't pin the caller's (possibly huge, recycled) buffer
	return g, err
}

func (p *Parser) parse(data []byte) (geom.Geometry, error) {
	p.buf, p.pos = data, 0
	p.skipSpace()
	if p.pos >= len(p.buf) {
		return nil, ErrEmpty
	}
	g, err := p.parseGeometry()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.buf) {
		return nil, p.errf("trailing data after geometry")
	}
	return g, nil
}

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) skipSpace() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

// ident consumes an ASCII identifier and returns its raw bytes (no copy,
// no case normalization — compare with foldEq).
func (p *Parser) ident() []byte {
	start := p.pos
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		if (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '_' {
			p.pos++
		} else {
			break
		}
	}
	return p.buf[start:p.pos]
}

// foldEq reports whether b equals the upper-case keyword kw under ASCII
// case folding, without allocating.
func foldEq(b []byte, kw string) bool {
	if len(b) != len(kw) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return false
		}
	}
	return true
}

func (p *Parser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.buf) || p.buf[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *Parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.buf) {
		return 0
	}
	return p.buf[p.pos]
}

// bstr views a byte slice as a string without copying. Only for handing
// bytes to functions that do not retain the string: number's
// strconv.ParseFloat fallback.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// pow10 holds the powers of ten a float64 represents exactly; 1e22 is the
// largest.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// maxFastDigits bounds the digits number converts itself: 10^15 < 2^53, so
// the significand of such a token is an exact float64.
const maxFastDigits = 15

// isNumByte reports whether c belongs to a number token.
func isNumByte(c byte) bool {
	return (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E'
}

// number parses one floating-point literal. A token of the form
// [+-]digits[.digits] with 1–15 digits in all (datagen's fixed five-decimal
// coordinates have 6–8) is converted in the scan that finds it: its
// significand and 10^fraction-digits are both exact float64s, so the one
// IEEE division is correctly rounded — the value strconv.ParseFloat returns,
// -0 included (Clinger's fast path). Every other token — more digits, an
// exponent, a stray sign or second point — is rescanned and handed to
// strconv, so what is accepted, how far it consumes and how it fails do not
// depend on which path ran.
func (p *Parser) number() (float64, error) {
	p.skipSpace()
	i, neg := p.pos, false
	if i < len(p.buf) && (p.buf[i] == '-' || p.buf[i] == '+') {
		neg = p.buf[i] == '-'
		i++
	}
	var mant uint64
	digits, dot := 0, -1
	for ; i < len(p.buf); i++ {
		c := p.buf[i]
		if c >= '0' && c <= '9' {
			mant = mant*10 + uint64(c-'0')
			digits++
		} else if c == '.' && dot < 0 {
			dot = digits
		} else {
			break
		}
	}
	if digits > 0 && digits <= maxFastDigits && (i == len(p.buf) || !isNumByte(p.buf[i])) {
		frac := 0
		if dot >= 0 {
			frac = digits - dot
		}
		v := float64(mant) / pow10[frac]
		if neg {
			v = -v
		}
		p.pos = i
		return v, nil
	}
	start := p.pos
	for p.pos < len(p.buf) && isNumByte(p.buf[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected number")
	}
	v, err := strconv.ParseFloat(bstr(p.buf[start:p.pos]), 64)
	if err != nil {
		tok := string(p.buf[start:p.pos])
		p.pos = start
		return 0, p.errf("bad number %q", tok)
	}
	return v, nil
}

// isEmptyTag consumes the EMPTY keyword if present.
func (p *Parser) isEmptyTag() bool {
	p.skipSpace()
	save := p.pos
	if foldEq(p.ident(), "EMPTY") {
		return true
	}
	p.pos = save
	return false
}

// beginRun starts a new point run in the arena.
func (p *Parser) beginRun() { p.mark = len(p.slab) }

// pushPoint appends one vertex to the in-progress run. When the slab is
// full the run migrates to a fresh slab; completed geometries keep the old
// backing array, so nothing they reference is ever overwritten.
func (p *Parser) pushPoint(pt geom.Point) {
	if len(p.slab) == cap(p.slab) {
		run := len(p.slab) - p.mark
		size := slabPoints
		if size < 2*(run+1) {
			size = 2 * (run + 1) // one oversized run gets its own slab
		}
		ns := make([]geom.Point, run, size)
		copy(ns, p.slab[p.mark:])
		p.slab, p.mark = ns, 0
	}
	p.slab = append(p.slab, pt)
}

// takeRun completes the in-progress run, records env — the run's MBR,
// folded by its scanner as the points were pushed — in runEnv, and returns
// the run. The full slice expression caps the result so callers appending
// to it reallocate instead of writing into the arena.
func (p *Parser) takeRun(env geom.Envelope) []geom.Point {
	out := p.slab[p.mark:len(p.slab):len(p.slab)]
	p.mark = len(p.slab)
	p.runEnv = env
	return out
}

// abandonRun discards the in-progress run, reclaiming its arena space
// (safe because the run was never handed to a geometry).
func (p *Parser) abandonRun() { p.slab = p.slab[:p.mark] }

func (p *Parser) parseGeometry() (geom.Geometry, error) {
	p.skipSpace()
	kw := p.ident()
	switch {
	case foldEq(kw, "POINT"):
		if p.isEmptyTag() {
			return nil, p.errf("POINT EMPTY not supported")
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		pt, err := p.point()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return pt, nil
	case foldEq(kw, "LINESTRING"):
		pts, err := p.pointList()
		if err != nil {
			return nil, err
		}
		if len(pts) < 2 {
			return nil, p.errf("LINESTRING needs >= 2 points, got %d", len(pts))
		}
		ls := &geom.LineString{Pts: pts}
		ls.PrimeEnvelope(p.runEnv)
		return ls, nil
	case foldEq(kw, "POLYGON"):
		rings, err := p.ringList()
		if err != nil {
			return nil, err
		}
		poly, err := p.polygonFromRings(rings)
		if err != nil {
			return nil, err
		}
		poly.PrimeEnvelope(p.ringEnvs[0])
		return &poly, nil
	case foldEq(kw, "MULTIPOINT"):
		pts, err := p.multiPointList()
		if err != nil {
			return nil, err
		}
		mp := &geom.MultiPoint{Pts: pts}
		mp.PrimeEnvelope(p.runEnv)
		return mp, nil
	case foldEq(kw, "MULTILINESTRING"):
		rings, err := p.ringList()
		if err != nil {
			return nil, err
		}
		lines := make([]geom.LineString, len(rings))
		env := geom.EmptyEnvelope()
		for i, r := range rings {
			if len(r) < 2 {
				return nil, p.errf("MULTILINESTRING element needs >= 2 points")
			}
			lines[i] = geom.LineString{Pts: r}
			lines[i].PrimeEnvelope(p.ringEnvs[i])
			env = env.Union(p.ringEnvs[i])
		}
		ml := &geom.MultiLineString{Lines: lines}
		ml.PrimeEnvelope(env)
		return ml, nil
	case foldEq(kw, "MULTIPOLYGON"):
		if err := p.expect('('); err != nil {
			return nil, err
		}
		polys := make([]geom.Polygon, 0, 4)
		env := geom.EmptyEnvelope()
		for {
			rings, err := p.ringList()
			if err != nil {
				return nil, err
			}
			poly, err := p.polygonFromRings(rings)
			if err != nil {
				return nil, err
			}
			poly.PrimeEnvelope(p.ringEnvs[0])
			env = env.Union(p.ringEnvs[0])
			polys = append(polys, poly)
			if p.peek() != ',' {
				break
			}
			p.pos++
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		mp := &geom.MultiPolygon{Polys: polys}
		mp.PrimeEnvelope(env)
		return mp, nil
	case len(kw) == 0:
		return nil, p.errf("expected geometry keyword")
	default:
		return nil, p.errf("unsupported geometry type %q", string(kw))
	}
}

func (p *Parser) polygonFromRings(rings [][]geom.Point) (geom.Polygon, error) {
	if len(rings) == 0 {
		return geom.Polygon{}, p.errf("POLYGON needs at least a shell ring")
	}
	for _, r := range rings {
		if len(r) < 4 {
			return geom.Polygon{}, p.errf("polygon ring needs >= 4 points, got %d", len(r))
		}
		if r[0] != r[len(r)-1] {
			return geom.Polygon{}, p.errf("polygon ring is not closed")
		}
	}
	holes := rings[1:]
	if len(holes) == 0 {
		holes = nil
	}
	return geom.Polygon{Shell: rings[0], Holes: holes}, nil
}

// point parses "x y".
func (p *Parser) point() (geom.Point, error) {
	x, err := p.number()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := p.number()
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Point{X: x, Y: y}, nil
}

// pointList parses "(x y, x y, ...)" into the arena, folding its envelope.
func (p *Parser) pointList() ([]geom.Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	p.beginRun()
	var env geom.Envelope
	for i := 0; ; i++ {
		pt, err := p.point()
		if err != nil {
			p.abandonRun()
			return nil, err
		}
		p.pushPoint(pt)
		env = geom.FoldPoint(env, i, pt.X, pt.Y)
		if p.peek() != ',' {
			break
		}
		p.pos++
	}
	if err := p.expect(')'); err != nil {
		p.abandonRun()
		return nil, err
	}
	return p.takeRun(env), nil
}

// ringList parses "((...), (...), ...)". The per-ring envelopes land in
// p.ringEnvs (index-aligned with the result), valid until the next ringList
// call.
func (p *Parser) ringList() ([][]geom.Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	rings := make([][]geom.Point, 0, 4)
	p.ringEnvs = p.ringEnvs[:0]
	for {
		pts, err := p.pointList()
		if err != nil {
			return nil, err
		}
		rings = append(rings, pts)
		p.ringEnvs = append(p.ringEnvs, p.runEnv)
		if p.peek() != ',' {
			break
		}
		p.pos++
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return rings, nil
}

// multiPointList accepts both MULTIPOINT(1 2, 3 4) and MULTIPOINT((1 2),(3 4)),
// folding the envelope as pointList does.
func (p *Parser) multiPointList() ([]geom.Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	p.beginRun()
	var env geom.Envelope
	for i := 0; ; i++ {
		var pt geom.Point
		var err error
		if p.peek() == '(' {
			p.pos++
			pt, err = p.point()
			if err == nil {
				err = p.expect(')')
			}
		} else {
			pt, err = p.point()
		}
		if err != nil {
			p.abandonRun()
			return nil, err
		}
		p.pushPoint(pt)
		env = geom.FoldPoint(env, i, pt.X, pt.Y)
		if p.peek() != ',' {
			break
		}
		p.pos++
	}
	if err := p.expect(')'); err != nil {
		p.abandonRun()
		return nil, err
	}
	return p.takeRun(env), nil
}
