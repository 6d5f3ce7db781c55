package wkt

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
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
