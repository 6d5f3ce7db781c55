package wkt

import (
	"reflect"
	"testing"
)

// FuzzParse drives the text decoder with arbitrary bytes — under
// SkipErrors ReadPartition hands it raw file fragments. The invariants:
// it never panics, it returns exactly one of a geometry and an error, and
// every accepted input survives Format → Parse as an equal geometry
// (coordinates and primed envelopes alike: both sides come out of the
// scanner, so DeepEqual compares the caches too).
func FuzzParse(f *testing.F) {
	records := []string{
		"POINT (30 10)",
		"LINESTRING (30 10, 10 30, 40 40)",
		"POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
		"MULTIPOINT ((10 40), (40 30))",
		"MULTIPOINT (10 40, 40 30)",
		"MULTILINESTRING ((10 10, 20 20), (40 40, 30 30, 40 20))",
		"MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 15 5), (16 8, 30 10, 14 14, 16 8)))",
		// datagen writes fixed five-decimal coordinates; Format writes the
		// shortest round-tripping form, exponents included.
		"POINT (-122.41942 37.77493)",
		"LINESTRING (-0.00001 89.99999, 179.99999 -90.00000)",
		"POINT (1e-07 -1.5E+21)",
		"POINT (+.5 -0)",
		"  point\t( 1   2 )\r\n",
	}
	for _, rec := range records {
		f.Add([]byte(rec))
		f.Add([]byte(rec[:len(rec)-1]))   // lost the closing paren
		f.Add([]byte(rec[:len(rec)/2]))   // cut mid-record, as a block boundary would
		f.Add([]byte(rec + ")"))          // garbage suffix
		f.Add([]byte(rec + "\nPOINT (0")) // the next record's head
	}
	f.Add([]byte(""))
	f.Add([]byte("POINT EMPTY"))
	f.Add([]byte("POLYGON EMPTY"))
	f.Add([]byte("POLYGON (())"))
	f.Add([]byte("POLYGON ((0 0, 1 1, 0 0))"))      // ring too short
	f.Add([]byte("POLYGON ((0 0, 1 0, 1 1, 0 1))")) // ring not closed
	f.Add([]byte("LINESTRING (1 2)"))
	f.Add([]byte("POINT (1e999 0)")) // overflows float64
	f.Add([]byte("POINT (nan inf)"))
	f.Add([]byte("POINT (1-2 3)"))
	f.Add([]byte("GEOMETRYCOLLECTION (POINT (1 2))"))
	f.Add([]byte("MULTIPOLYGON ((((((((("))
	// Coordinates either side of number's fast path: 15 digits, 16 digits
	// that double-round through a float64 significand, a halfway case,
	// signed zeros, bare points and signs.
	f.Add([]byte("POINT (999999999999999 -0.00000000000001)"))
	f.Add([]byte("POINT (93.59078931092681 9007199254740995)"))
	f.Add([]byte("LINESTRING (-0 +0, .5 5., -.5 +.5)"))
	f.Add([]byte("POINT (1.00000000000000011102230246251565404236316680908203125 1e23)"))
	f.Add([]byte("POINT (- .)"))
	f.Add([]byte("POINT (1.2.3 4)"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Parse(data)
		if err != nil {
			if g != nil {
				t.Fatalf("Parse returned a geometry alongside error %v", err)
			}
			return
		}
		if g == nil {
			t.Fatal("Parse succeeded with nil geometry")
		}
		text := Format(g)
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("Format produced unparseable text %q: %v", text, err)
		}
		if !reflect.DeepEqual(g, back) {
			t.Fatalf("round trip changed the geometry:\n in   %q\n text %q", data, text)
		}
	})
}
