package wkt

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/geom"
)

// refNumber is Parser.number without its fast path: scan the token, hand it
// to strconv.ParseFloat. It is the reference the fast path must match.
func refNumber(p *Parser) (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return 0, p.errf("expected number")
	}
	v, err := strconv.ParseFloat(string(p.buf[start:p.pos]), 64)
	if err != nil {
		tok := string(p.buf[start:p.pos])
		p.pos = start
		return 0, p.errf("bad number %q", tok)
	}
	return v, nil
}

// checkNumber runs number and refNumber over the same bytes and fails on
// any difference: accept/reject, the value's bits, bytes consumed, error
// text.
func checkNumber(t *testing.T, data []byte) {
	t.Helper()
	got, ref := Parser{buf: data}, Parser{buf: data}
	gv, gerr := got.number()
	rv, rerr := refNumber(&ref)
	switch {
	case (gerr == nil) != (rerr == nil):
		t.Fatalf("%q: number err %v, reference err %v", data, gerr, rerr)
	case gerr != nil && gerr.Error() != rerr.Error():
		t.Fatalf("%q: number err %q, reference err %q", data, gerr, rerr)
	case math.Float64bits(gv) != math.Float64bits(rv):
		t.Fatalf("%q: number = %v (%#x), reference %v (%#x)",
			data, gv, math.Float64bits(gv), rv, math.Float64bits(rv))
	case got.pos != ref.pos:
		t.Fatalf("%q: number consumed %d bytes, reference %d", data, got.pos, ref.pos)
	}
}

// numberSeeds are the tokens where a short-decimal fast path could drift
// from strconv: datagen's alphabet, digit counts either side of the 15-digit
// limit, halfway cases, signed zeros, degenerate forms and exponents.
var numberSeeds = []string{
	// datagen's fixed five-decimal coordinates
	"-122.41942", "37.77493", "0.00000", "-0.00000", "-0.00001", "179.99999",
	"-180.00000", "89.99999", "-90.00000", "12345.67891", "0.10000",
	// 15, 16, 17, 19 and 20 digits, with and without a fraction
	"123456789012345", "999999999999999", "1234567890.12345", "0.00000000000001",
	"9007199254740993", "9007199254740.993", "9999999999999999", "0.000000000000001",
	"93.59078931092681", // its significand is not a float64: dividing it rounds twice
	"12345678901234567", "1234567890.1234567", "4503599627370496.5",
	"1234567890123456789", "0.1234567890123456789",
	"12345678901234567890", "1234567890.1234567890",
	// halfway between two float64s: ties to even, either way
	"9007199254740995", "9007199254740997",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203126",
	"0.1", "0.3", "2.2250738585072011e-308",
	// signs, zeros and degenerate forms
	"-0", "+0", "0", "-0.0", "+0.", "-.0", "007", "-00.50", "000000000000000001",
	".5", "5.", "+.5", "-.5", "-", "+", ".", "-.", "+-1", "--1", "1.2.3", "1-2",
	"1+", "..5", "",
	// exponents, overflow, underflow and non-decimal spellings
	"1e23", "1E23", "1e-400", "1e999", "-1e999", "5e-324", "1.7976931348623157e308",
	"1e", "1e+", "0x1p3", "inf", "NaN",
	// padded with WKT whitespace, as the tokens of a point list are
	" 1", "  -122.41942", "\t+.5", "\r\n5.", " -0", "\n.", " --1", "\t1.2.3", "  -2.5E-3",
	" 12345678901234567", "\t\t", " ",
}

// numberTails end a seed token the ways a record does, and the ways that
// must push it to strconv.
var numberTails = []string{"", " ", ",", ")", " 1)", "\n", "e5", ".", "-", "x"}

func FuzzNumber(f *testing.F) {
	for _, s := range numberSeeds {
		for _, tail := range numberTails {
			f.Add([]byte(s + tail))
		}
	}
	f.Add([]byte("  \t12.5 "))
	f.Fuzz(func(t *testing.T, data []byte) { checkNumber(t, data) })
}

// TestNumberMatchesStrconv compares number with strconv.ParseFloat bit for
// bit over seeded fixed-point strings of 0 to 16 decimals across 24 orders
// of magnitude — a mix of tokens the fast path takes and ones it must not.
func TestNumberMatchesStrconv(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	buf := make([]byte, 0, 64)
	for i := 0; i < 200_000; i++ {
		x := (2*r.Float64() - 1) * math.Pow(10, float64(r.Intn(24)-8))
		buf = strconv.AppendFloat(buf[:0], x, 'f', r.Intn(17), 64)
		want, err := strconv.ParseFloat(string(buf), 64)
		if err != nil {
			t.Fatalf("%q: strconv: %v", buf, err)
		}
		p := Parser{buf: buf}
		got, err := p.number()
		if err != nil || math.Float64bits(got) != math.Float64bits(want) || p.pos != len(buf) {
			t.Fatalf("%q: number = %v (%#x), consumed %d, err %v; strconv %v (%#x)",
				buf, got, math.Float64bits(got), p.pos, err, want, math.Float64bits(want))
		}
	}
}

// refPointList is pointList with every coordinate converted by refNumber:
// the token-at-a-time parse the cursor loop must match. It returns the
// points and their folded envelope.
func refPointList(p *Parser) ([]geom.Point, geom.Envelope, error) {
	var env geom.Envelope
	if err := p.expect('('); err != nil {
		return nil, env, err
	}
	var pts []geom.Point
	for i := 0; ; i++ {
		x, err := refNumber(p)
		if err != nil {
			return nil, env, err
		}
		y, err := refNumber(p)
		if err != nil {
			return nil, env, err
		}
		pts = append(pts, geom.Point{X: x, Y: y})
		env = geom.FoldPoint(env, i, x, y)
		if p.peek() != ',' {
			break
		}
		p.pos++
	}
	if err := p.expect(')'); err != nil {
		return nil, env, err
	}
	return pts, env, nil
}

// refRingList is ringList over refPointList.
func refRingList(p *Parser) ([][]geom.Point, []geom.Envelope, error) {
	if err := p.expect('('); err != nil {
		return nil, nil, err
	}
	var rings [][]geom.Point
	var envs []geom.Envelope
	for {
		pts, env, err := refPointList(p)
		if err != nil {
			return nil, nil, err
		}
		rings, envs = append(rings, pts), append(envs, env)
		if p.peek() != ',' {
			break
		}
		p.pos++
	}
	if err := p.expect(')'); err != nil {
		return nil, nil, err
	}
	return rings, envs, nil
}

// sameBits reports whether two point runs are equal bit for bit.
func sameBits(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// sameEnvBits is sameBits for envelopes.
func sameEnvBits(a, b geom.Envelope) bool {
	return sameBits([]geom.Point{{X: a.MinX, Y: a.MinY}, {X: a.MaxX, Y: a.MaxY}},
		[]geom.Point{{X: b.MinX, Y: b.MinY}, {X: b.MaxX, Y: b.MaxY}})
}

// sameErr reports whether two parse errors agree: both nil, or both
// SyntaxErrors with the same offset and text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	var sa, sb *SyntaxError
	return errors.As(a, &sa) && errors.As(b, &sb) && *sa == *sb
}

// listTokens are the coordinate tokens the cursor loop must hand to the
// token-at-a-time fallback: exponents, 16+ digits, a leading '+' or '.', a
// trailing '.', a signed zero, bare and malformed tokens, and tokens padded
// with every kind of WKT whitespace.
var listTokens = []string{
	"1e5", "-2.5E-3", "1234567890.1234567", "93.59078931092681", "+.5", "5.", "-0",
	".", "--1", "1.2.3", "1-2", "+", "  -7.25 ", "\t12\r\n", " \n-0.00001\t",
}

// TestPointListMatchesNumber puts each listTokens entry in every coordinate
// slot — x or y of the first, a middle or the last point — of a LINESTRING
// point list and of either ring of a POLYGON ring list, the other slots
// holding datagen's five-decimal coordinates, and checks the cursor loop
// against refPointList / refRingList: coordinates and primed envelopes
// bitwise, bytes consumed, and the SyntaxError offset and text.
func TestPointListMatchesNumber(t *testing.T) {
	const points = 3
	fill := []string{"-122.41942", "37.77493", "0.00000", "-0.00001", "179.99999", "-90.00000"}
	list := func(slot int, tok string) string {
		b := []byte("(")
		for k := 0; k < 2*points; k++ {
			switch {
			case k > 0 && k%2 == 0:
				b = append(b, ", "...)
			case k%2 == 1:
				b = append(b, ' ')
			}
			if k == slot {
				b = append(b, tok...)
			} else {
				b = append(b, fill[k]...)
			}
		}
		return string(append(b, ')'))
	}
	others := list(-1, "")
	for _, tok := range listTokens {
		for slot := 0; slot < 2*points; slot++ {
			ls := list(slot, tok)
			got, ref := &Parser{buf: []byte(ls)}, &Parser{buf: []byte(ls)}
			pts, err := got.pointList()
			rpts, renv, rerr := refPointList(ref)
			if !sameErr(err, rerr) || got.pos != ref.pos || !sameBits(pts, rpts) || (err == nil && !sameEnvBits(got.runEnv, renv)) {
				t.Fatalf("LINESTRING %q: got %v env %v pos %d err %v; reference %v env %v pos %d err %v",
					ls, pts, got.runEnv, got.pos, err, rpts, renv, ref.pos, rerr)
			}
			for _, rl := range []string{"(" + ls + ", " + others + ")", "(" + others + ", " + ls + ")"} {
				got, ref := &Parser{buf: []byte(rl)}, &Parser{buf: []byte(rl)}
				rings, err := got.ringList()
				rrings, renvs, rerr := refRingList(ref)
				if !sameErr(err, rerr) || got.pos != ref.pos || len(rings) != len(rrings) {
					t.Fatalf("POLYGON %q: got %d rings pos %d err %v; reference %d rings pos %d err %v",
						rl, len(rings), got.pos, err, len(rrings), ref.pos, rerr)
				}
				for i := range rings {
					if !sameBits(rings[i], rrings[i]) || !sameEnvBits(got.ringEnvs[i], renvs[i]) {
						t.Fatalf("POLYGON %q ring %d: got %v env %v; reference %v env %v",
							rl, i, rings[i], got.ringEnvs[i], rrings[i], renvs[i])
					}
				}
			}
		}
	}
}
