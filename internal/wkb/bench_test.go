package wkb

import (
	"testing"

	"repro/internal/geom"
)

// Decode throughput fixtures, mirroring internal/wkt's benchmark suite so
// the two scanners' numbers stay comparable.
var benchLS = func() []byte {
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i * 3), Y: float64(i % 5)}
	}
	return Encode(&geom.LineString{Pts: pts})
}()

func BenchmarkWKBDecodeLineString(b *testing.B) {
	p := NewParser()
	b.SetBytes(int64(len(benchLS)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Decode(benchLS); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink geom.Envelope

func BenchmarkEnvelopeOf(b *testing.B) {
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i * 3), Y: float64(i % 5)}
	}
	for i := 0; i < b.N; i++ {
		benchSink = geom.EnvelopeOf(pts)
	}
}
