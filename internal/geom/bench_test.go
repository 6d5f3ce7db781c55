package geom

import (
	"fmt"
	"math"
	"testing"
)

// benchLine is a 64-vertex line string, the scale at which per-call
// envelope rescans start to dominate the filter phase.
func benchLine() *LineString {
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point{X: float64(i % 13), Y: float64(i % 7)}
	}
	return &LineString{Pts: pts}
}

// BenchmarkEnvelopeCached measures repeated Envelope() calls on one
// geometry — the grid-partitioning / join-filter access pattern. With the
// memoized MBR this is O(1) and allocation-free after the first call.
func BenchmarkEnvelopeCached(b *testing.B) {
	l := benchLine()
	l.Envelope() // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.Envelope().IsEmpty() {
			b.Fatal("unexpected empty envelope")
		}
	}
}

// BenchmarkEnvelopeScan is the uncached baseline: a full vertex rescan per
// call, what Envelope() cost before the cache.
func BenchmarkEnvelopeScan(b *testing.B) {
	l := benchLine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if EnvelopeOf(l.Pts).IsEmpty() {
			b.Fatal("unexpected empty envelope")
		}
	}
}

// BenchmarkEnvelopeFirstCall includes the one-time cache fill.
func BenchmarkEnvelopeFirstCall(b *testing.B) {
	l := benchLine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.cache = envCache{}
		if l.Envelope().IsEmpty() {
			b.Fatal("unexpected empty envelope")
		}
	}
}

// benchRing is a closed n-vertex ring around (0,0) whose radius alternates
// between 8 and 10: its envelope is [-10,10]², its corners are empty, and
// consecutive segments zigzag so that none is axis-parallel.
func benchRing(n int, c Point, scale float64) []Point {
	pts := make([]Point, n)
	for i := 0; i < n-1; i++ {
		s, co := math.Sincos(2 * math.Pi * float64(i) / float64(n-1))
		rad := scale * (8 + 2*float64(i%2))
		pts[i] = Point{c.X + rad*co, c.Y + rad*s}
	}
	pts[n-1] = pts[0]
	return pts
}

var benchSink bool

// BenchmarkIntersectsRect is the range query's refine step by how the
// candidate lies against the query rectangle. Contained is O(1); straddling
// stops at the first boundary crossing, half-way round a ring that starts
// on the far side; envelope-overlapping but disjoint is the
// worst case, one outcode per vertex and one PointInPolygon.
func BenchmarkIntersectsRect(b *testing.B) {
	rects := []struct {
		name string
		r    Envelope
		want bool
	}{
		{"contained", Envelope{-20, -20, 20, 20}, true},
		{"straddling", Envelope{-15, -1, -5, 1}, true},
		{"disjoint", Envelope{8, 8, 9.5, 9.5}, false},
	}
	for _, rc := range rects {
		for _, n := range []int{16, 256, 4096} {
			g := &Polygon{Shell: benchRing(n+1, Point{}, 1)}
			g.Envelope()
			b.Run(fmt.Sprintf("%s/%d", rc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = IntersectsRect(g, rc.r)
				}
				if benchSink != rc.want {
					b.Fatalf("IntersectsRect = %v, want %v", benchSink, rc.want)
				}
			})
		}
	}
}

// BenchmarkIntersectsPolyPoly is the join's refine step: a 16-vertex
// polygon on the rim of a 4096-vertex one (the cemetery against the lake,
// where window clipping leaves a handful of pairs), and two 4096-vertex
// rings offset so that their rims cross.
func BenchmarkIntersectsPolyPoly(b *testing.B) {
	large := &Polygon{Shell: benchRing(4097, Point{}, 1)}
	pairs := []struct {
		name  string
		other *Polygon
		want  bool
	}{
		{"small-x-large/crossing", &Polygon{Shell: benchRing(17, Point{-9, 0}, 0.1)}, true},
		{"small-x-large/inside", &Polygon{Shell: benchRing(17, Point{-3, 0}, 0.1)}, true},
		{"small-x-large/disjoint", &Polygon{Shell: benchRing(17, Point{8.5, 8.5}, 0.1)}, false},
		{"large-x-large/crossing", &Polygon{Shell: benchRing(4097, Point{-12, 0}, 1)}, true},
	}
	large.Envelope()
	for _, pc := range pairs {
		pc.other.Envelope()
		b.Run(pc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Intersects(pc.other, large)
			}
			if benchSink != pc.want {
				b.Fatalf("Intersects = %v, want %v", benchSink, pc.want)
			}
		})
	}
}
