package wkt

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// Benchmark fixtures: one record per geometry class, sized like the small
// end of the paper's OSM extracts (the hot path parses billions of these).
var (
	benchPoint      = []byte("POINT (-87.6847 41.8369)")
	benchLineString = []byte("LINESTRING (30 10, 10 30, 40 40, 20 15, 35 5, 30 10, 12 8, 44 2)")
	benchPolygon    = []byte("POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))")
	benchMultiPoly  = []byte("MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 5 10, 15 5)))")
)

// benchLakes is one lake as datagen writes it: a closed ring of fixed
// five-decimal coordinates, the token shape number converts without strconv
// (the fixtures above are all integers).
var benchLakes = lakeRecord(lakeVerts)

const lakeVerts = 256

// lakeRecord returns a POLYGON record whose shell has verts distinct
// vertices and is closed, each coordinate formatted as datagen formats it.
func lakeRecord(verts int) []byte {
	r := rand.New(rand.NewSource(1))
	b := []byte("POLYGON ((")
	var first []byte
	for i := 0; i < verts; i++ {
		a := 2 * math.Pi * float64(i) / float64(verts)
		rad := 0.05 * (0.8 + 0.4*r.Float64())
		at := len(b)
		b = strconv.AppendFloat(b, -87.6847+rad*math.Cos(a), 'f', 5, 64)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, 41.8369+rad*math.Sin(a), 'f', 5, 64)
		if i == 0 {
			first = append(first, b[at:]...)
		}
		b = append(b, ", "...)
	}
	b = append(b, first...)
	return append(b, "))"...)
}

func benchParse(b *testing.B, in []byte) {
	b.Helper()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWKTParsePoint(b *testing.B)      { benchParse(b, benchPoint) }
func BenchmarkWKTParseLineString(b *testing.B) { benchParse(b, benchLineString) }
func BenchmarkWKTParsePolygon(b *testing.B)    { benchParse(b, benchPolygon) }
func BenchmarkWKTParseMultiPoly(b *testing.B)  { benchParse(b, benchMultiPoly) }

// BenchmarkWKTParseLakes reports vertices/s beside ns/op, counting the
// closing vertex.
func BenchmarkWKTParseLakes(b *testing.B) {
	benchParse(b, benchLakes)
	b.ReportMetric((lakeVerts+1)*float64(b.N)/b.Elapsed().Seconds(), "vertices/s")
}
