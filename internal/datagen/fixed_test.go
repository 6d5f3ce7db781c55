package datagen

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"repro/internal/geom"
	"repro/internal/wkb"
)

func checkFixed5(t *testing.T, x float64) {
	t.Helper()
	got, want := appendFixed5(nil, x), strconv.AppendFloat(nil, x, 'f', 5, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendFixed5(%b = %v) = %s, want %s", x, x, got, want)
	}
}

// fixed5Edges are the inputs where rounding x·1e5 is delicate: exact ties
// (odd multiples of 1/64 are k + 1/2 after scaling, k of either parity),
// signed zeros, small negatives that round to "-0.00000", neighbours of the
// fast range's bound, and the values strconv alone handles.
var fixed5Edges = []float64{
	0, math.Copysign(0, -1), 5e-6, -5e-6, 4.9999e-6, -4.9999e-6, 1e-6, -1e-6,
	0.000015, -0.000015, 179.999995, -179.999995, 89.999995, 1.5e-5, 2.5e-5,
	1.0 / 64, 3.0 / 64, -5.0 / 64, 11519.0 / 64, -11517.0 / 64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-969, 0x1p-1022,
	1e10, -1e10, math.Nextafter(1e10, 0), -math.Nextafter(1e10, 0), 0x1p50 / 1e5,
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestAppendFixed5MatchesStrconv: the coordinate formatter ≡
// strconv.AppendFloat(x, 'f', 5, 64), byte for byte, on the edge cases
// above and on every coordinate every preset emits. The WKB twin of each
// dataset carries the exact float64 coordinates its WKT text formats (the
// encodings consume the random stream identically), so decoding it
// enumerates them.
func TestAppendFixed5MatchesStrconv(t *testing.T) {
	for _, x := range fixed5Edges {
		checkFixed5(t, x)
	}
	for j := 1; j < 1<<14; j += 2 { // every tie k + 1/2 of the form j/64 up to ±256
		x := float64(j) / 64
		for _, y := range []float64{x, -x, math.Nextafter(x, 0), math.Nextafter(x, 1e300)} {
			checkFixed5(t, y)
		}
	}
	for _, spec := range append(AllDatasets(), Hotspot()) {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			scale := spec.DefaultScale
			if testing.Short() {
				scale *= 16
			}
			var bin bytes.Buffer
			if _, err := GenerateEncoded(spec, scale, EncodingWKB, &bin); err != nil {
				t.Fatal(err)
			}
			coords := 0
			for buf := bin.Bytes(); len(buf) > 0; {
				g, n, err := wkb.DecodeFramed(buf)
				if err != nil {
					t.Fatal(err)
				}
				var pts []geom.Point
				switch g := g.(type) {
				case geom.Point:
					pts = []geom.Point{g}
				case *geom.LineString:
					pts = g.Pts
				case *geom.Polygon:
					pts = g.Shell
				default:
					t.Fatalf("unexpected geometry %T", g)
				}
				for _, p := range pts {
					checkFixed5(t, p.X)
					checkFixed5(t, p.Y)
				}
				coords += 2 * len(pts)
				buf = buf[n:]
			}
			if coords == 0 {
				t.Fatal("no coordinates generated")
			}
		})
	}
}

// FuzzAppendFixed5: any float64 formats as strconv's 'f', 5 does.
func FuzzAppendFixed5(f *testing.F) {
	for _, x := range fixed5Edges {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkFixed5(t, x)
	})
}
