// Package datagen synthesizes the six OpenStreetMap-derived datasets of the
// paper's Table 3 at configurable scale. The generators reproduce the
// properties the paper's experiments depend on rather than the map content
// itself: shape class (polygon / line / point), mean record size (hence
// dataset size vs. record count), heavy-tailed record lengths (the largest
// polygon in the paper's data is ~11 MB), and clustered, skewed spatial
// distribution (real map data is far from uniform, which is what makes
// load balancing hard — §1, §4).
//
// A dataset generated at scale S holds 1/S of the full-size bytes and
// records; the pfs file is tagged with the scale so all modeled times are
// reported in full-size terms (DESIGN.md §2).
package datagen

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/geom"
	"repro/internal/pfs"
	"repro/internal/wkb"
)

// Encoding selects the on-disk record format of a generated dataset.
type Encoding int

const (
	// EncodingWKT writes newline-delimited WKT text — the paper's primary
	// dataset format (read with the default Delimited framing).
	EncodingWKT Encoding = iota
	// EncodingWKB writes length-prefixed binary WKB records (u32 payload
	// length + WKB payload, read with the LengthPrefixed framing) — the
	// paper's binary variant that skips float scanning entirely (§4.1,
	// Figures 12/15).
	EncodingWKB
)

// String names the encoding as the benchmark artifacts do.
func (e Encoding) String() string {
	if e == EncodingWKB {
		return "wkb"
	}
	return "wkt"
}

// Ext returns the conventional file extension for the encoding.
func (e Encoding) Ext() string {
	if e == EncodingWKB {
		return ".wkb"
	}
	return ".wkt"
}

// Spec describes one synthetic dataset in full-scale terms.
type Spec struct {
	// Name labels the dataset ("lakes", "roads", ...).
	Name string
	// Shape is the record geometry class.
	Shape geom.Type
	// FullBytes and FullCount are the Table 3 file size and record count.
	FullBytes int64
	FullCount int64
	// MaxRecordBytes is the full-scale worst-case record size (the paper's
	// 11 MB polygon bound that sizes halos and receive buffers).
	MaxRecordBytes int64
	// HugeProb is the probability of emitting a near-worst-case record.
	HugeProb float64
	// Clusters is the number of spatial clusters (skew knob).
	Clusters int
	// ClusterSigma is the cluster spread in degrees.
	ClusterSigma float64
	// ZipfSkew is the exponent of the Zipf law weighting the clusters —
	// the hot-cell skew knob. Larger exponents pile more of the dataset
	// onto the first few clusters; zero means the default 0.8 the
	// Table 3 presets were calibrated with, so their output is unchanged.
	ZipfSkew float64
	// Seed fixes the generator.
	Seed int64
	// DefaultScale is the scale factor the benchmark harness uses so the
	// scaled file lands in the tens of megabytes.
	DefaultScale float64
}

// AvgRecordBytes returns the full-scale mean record size.
func (s Spec) AvgRecordBytes() float64 {
	return float64(s.FullBytes) / float64(s.FullCount)
}

// Table 3 presets. Sizes and counts are the paper's; the derived mean
// record sizes drive the vertex-count distributions.

// Cemetery is dataset #1: 56 MB, 193 K polygons.
func Cemetery() Spec {
	return Spec{
		Name: "cemetery", Shape: geom.TypePolygon,
		FullBytes: 56e6, FullCount: 193e3,
		MaxRecordBytes: 64e3, HugeProb: 1e-4,
		Clusters: 40, ClusterSigma: 2.0, Seed: 101, DefaultScale: 64,
	}
}

// Lakes is dataset #2: 9 GB, 8 M polygons.
func Lakes() Spec {
	return Spec{
		Name: "lakes", Shape: geom.TypePolygon,
		FullBytes: 9e9, FullCount: 8e6,
		MaxRecordBytes: 11e6, HugeProb: 5e-5,
		Clusters: 120, ClusterSigma: 6.0, Seed: 102, DefaultScale: 1024,
	}
}

// Roads is dataset #3: 24 GB, 72 M polygons. Road infrastructure spreads
// far more uniformly than lakes or cemeteries, so its clusters are wide —
// which keeps its cross-layer overlap density realistic.
func Roads() Spec {
	return Spec{
		Name: "roads", Shape: geom.TypePolygon,
		FullBytes: 24e9, FullCount: 72e6,
		MaxRecordBytes: 2e6, HugeProb: 5e-5,
		Clusters: 500, ClusterSigma: 50.0, Seed: 103, DefaultScale: 2048,
	}
}

// AllObjects is dataset #4: 92 GB, 263 M polygons (the paper's largest
// polygonal file, carrying the ~11 MB worst-case records).
func AllObjects() Spec {
	return Spec{
		Name: "allobjects", Shape: geom.TypePolygon,
		FullBytes: 92e9, FullCount: 263e6,
		MaxRecordBytes: 11e6, HugeProb: 2e-5,
		Clusters: 300, ClusterSigma: 10.0, Seed: 104, DefaultScale: 4096,
	}
}

// RoadNetwork is dataset #5: 137 GB, 717 M line records.
func RoadNetwork() Spec {
	return Spec{
		Name: "roadnetwork", Shape: geom.TypeLineString,
		FullBytes: 137e9, FullCount: 717e6,
		MaxRecordBytes: 1e6, HugeProb: 2e-5,
		Clusters: 250, ClusterSigma: 9.0, Seed: 105, DefaultScale: 8192,
	}
}

// AllNodes is dataset #6: 96 GB, 2.7 B points.
func AllNodes() Spec {
	return Spec{
		Name: "allnodes", Shape: geom.TypePoint,
		FullBytes: 96e9, FullCount: 2.7e9,
		MaxRecordBytes: 64, HugeProb: 0,
		Clusters: 400, ClusterSigma: 12.0, Seed: 106, DefaultScale: 8192,
	}
}

// AllDatasets returns the Table 3 presets in table order.
func AllDatasets() []Spec {
	return []Spec{Cemetery(), Lakes(), Roads(), AllObjects(), RoadNetwork(), AllNodes()}
}

// Hotspot is the extreme-skew stress preset (not part of Table 3): a
// point layer whose cluster weights follow a steep Zipf law, so a couple
// of tight hotspots hold most of the records. It is the worst case for
// uniform grid placement — the dataset the skew-aware adaptive partition
// is benchmarked against.
func Hotspot() Spec {
	return Spec{
		Name: "hotspot", Shape: geom.TypePoint,
		FullBytes: 4e9, FullCount: 112e6,
		MaxRecordBytes: 64, HugeProb: 0,
		Clusters: 48, ClusterSigma: 0.6, Seed: 107, ZipfSkew: 3.0,
		DefaultScale: 4096,
	}
}

// Stats reports what a generation run produced (real, scaled quantities).
type Stats struct {
	Records        int64
	Bytes          int64
	MaxRecordBytes int64
}

// bytesPerVertex approximates the WKT footprint of one "x y" coordinate
// pair at 5-decimal precision, separators included.
const bytesPerVertex = 19.0

// worldSeed fixes the shared cluster-center sequence all datasets draw
// from, giving cross-dataset spatial correlation.
const worldSeed = 7919

// Generate writes the dataset scaled by 1/scale to out as
// newline-delimited WKT.
func Generate(spec Spec, scale float64, out io.Writer) (Stats, error) {
	return GenerateEncoded(spec, scale, EncodingWKT, out)
}

// GenerateEncoded writes the dataset scaled by 1/scale to out in the given
// record encoding. The two encodings consume the random stream identically,
// so record k of the WKB variant is the same feature as record k of the WKT
// variant (modulo the 5-decimal rounding WKT applies to coordinates) — what
// makes the text-vs-binary ingest benchmarks a like-for-like comparison.
func GenerateEncoded(spec Spec, scale float64, enc Encoding, out io.Writer) (Stats, error) {
	if scale <= 0 {
		scale = 1
	}
	var stats Stats
	targetBytes := int64(float64(spec.FullBytes) / scale)
	if targetBytes < 1 {
		targetBytes = 1
	}
	r := rand.New(rand.NewSource(spec.Seed))
	world := geom.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}

	// Cluster centers with zipf-like weights: real map data piles up in a
	// few dense regions. Centers come from a world-level sequence shared by
	// every dataset (not from spec.Seed), so different layers co-locate the
	// way real OSM extracts do — lakes, roads and cemeteries all concentrate
	// where people live, which is what gives spatial joins their hits.
	rWorld := rand.New(rand.NewSource(worldSeed))
	skew := spec.ZipfSkew
	if skew <= 0 {
		skew = 0.8
	}
	centers := make([]geom.Point, spec.Clusters)
	weights := make([]float64, spec.Clusters)
	var wsum float64
	for i := range centers {
		centers[i] = geom.Point{
			X: world.MinX + rWorld.Float64()*world.Width(),
			Y: world.MinY + rWorld.Float64()*world.Height(),
		}
		weights[i] = 1 / math.Pow(float64(i+1), skew)
		wsum += weights[i]
	}
	pick := func() geom.Point {
		t := r.Float64() * wsum
		for i, w := range weights {
			if t -= w; t <= 0 {
				c := centers[i]
				return geom.Point{
					X: clampTo(c.X+r.NormFloat64()*spec.ClusterSigma, world.MinX, world.MaxX),
					Y: clampTo(c.Y+r.NormFloat64()*spec.ClusterSigma, world.MinY, world.MaxY),
				}
			}
		}
		return centers[len(centers)-1]
	}

	// Vertex distribution targeting the Table 3 mean record size, with a
	// log-normal body and an explicit heavy tail. The cap scales with the
	// file so MaxRecordBytes/scale bounds every record — the property that
	// sizes halo reads and receive buffers, as the paper's 11 MB bound does
	// at full scale. 22 bytes is the worst-case per-vertex WKT footprint
	// ("-179.99999 -89.99999, "), so the byte bound holds exactly.
	meanVerts := (spec.AvgRecordBytes() - 14) / bytesPerVertex
	if meanVerts < 1 {
		meanVerts = 1
	}
	maxVerts := int(math.Max(4, (float64(spec.MaxRecordBytes)/scale-20)/22))
	buf := make([]byte, 0, 4096)
	var pts []geom.Point
	for stats.Bytes < targetBytes {
		buf = buf[:0]
		center := pick()
		var verts int
		if spec.Shape != geom.TypePoint {
			if spec.HugeProb > 0 && r.Float64() < spec.HugeProb {
				verts = maxVerts
			} else {
				// Log-normal body: median below mean, long right tail.
				v := math.Exp(r.NormFloat64()*0.6) * meanVerts * 0.85
				verts = int(v)
			}
			if verts > maxVerts {
				verts = maxVerts
			}
		}
		switch spec.Shape {
		case geom.TypePoint:
			pts = append(pts[:0], center)
		case geom.TypeLineString:
			if verts < 2 {
				verts = 2
			}
			pts = genLineVertices(pts[:0], r, center, verts)
		default:
			if verts < 3 {
				verts = 3
			}
			pts = genPolygonRing(pts[:0], r, center, verts)
		}
		switch enc {
		case EncodingWKB:
			buf = appendRecordWKB(buf, spec.Shape, pts)
		default:
			buf = appendRecordWKT(buf, spec.Shape, pts)
			buf = append(buf, '\n')
		}
		if _, err := out.Write(buf); err != nil {
			return stats, fmt.Errorf("datagen: %w", err)
		}
		stats.Records++
		stats.Bytes += int64(len(buf))
		if int64(len(buf)) > stats.MaxRecordBytes {
			stats.MaxRecordBytes = int64(len(buf))
		}
	}
	return stats, nil
}

// GenerateFile generates the dataset into a pfs file as newline-delimited
// WKT and tags it with the scale factor so the timing model reports
// full-size numbers.
func GenerateFile(spec Spec, scale float64, fs *pfs.FS, name string, stripeCount int, stripeSize int64) (*pfs.File, Stats, error) {
	return GenerateFileEncoded(spec, scale, EncodingWKT, fs, name, stripeCount, stripeSize)
}

// GenerateFileEncoded is GenerateFile with an explicit record encoding.
func GenerateFileEncoded(spec Spec, scale float64, enc Encoding, fs *pfs.FS, name string, stripeCount int, stripeSize int64) (*pfs.File, Stats, error) {
	f, err := fs.Create(name, stripeCount, stripeSize)
	if err != nil {
		return nil, Stats{}, err
	}
	w := &fileWriter{f: f}
	stats, err := GenerateEncoded(spec, scale, enc, w)
	if err != nil {
		return nil, stats, err
	}
	f.SetScale(scale)
	return f, stats, nil
}

type fileWriter struct {
	f *pfs.File
}

func (w *fileWriter) Write(p []byte) (int, error) {
	w.f.Append(p)
	return len(p), nil
}

func clampTo(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func appendCoord(buf []byte, x, y float64) []byte {
	buf = appendFixed5(buf, x)
	buf = append(buf, ' ')
	return appendFixed5(buf, y)
}

// appendFixed5 appends exactly what strconv.AppendFloat(buf, x, 'f', 5, 64)
// does, without the arbitrary-precision path strconv takes for every 'f'
// format. For |x| < 1e10 the exact product |x|·1e5 is p + e, p the rounded
// product and e its error, recovered exactly by math.FMA. p < 2^50, so
// frac(p) is exact and |e| ≤ 1/16; rounding p + e half to even then needs
// only the sign of (frac(p) - 1/2) + e, and frac(p) - 1/2 is exact
// (Sterbenz) wherever that sum can be near zero. Other inputs go to strconv.
func appendFixed5(buf []byte, x float64) []byte {
	a := math.Abs(x)
	if !(a < 1e10) {
		return strconv.AppendFloat(buf, x, 'f', 5, 64)
	}
	p := a * 1e5
	e := math.FMA(a, 1e5, -p)
	k := math.Floor(p)
	n := uint64(k)
	if d := p - k - 0.5; d > -e || d == -e && n&1 == 1 {
		n++
	}
	if math.Signbit(x) {
		buf = append(buf, '-')
	}
	buf = strconv.AppendUint(buf, n/1e5, 10)
	f := n % 1e5
	return append(buf, '.', byte('0'+f/1e4), byte('0'+f/1e3%10), byte('0'+f/100%10), byte('0'+f/10%10), byte('0'+f%10))
}

// genLineVertices emits a random walk polyline around the center.
func genLineVertices(pts []geom.Point, r *rand.Rand, c geom.Point, verts int) []geom.Point {
	x, y := c.X, c.Y
	for i := 0; i < verts; i++ {
		if i > 0 {
			x += r.NormFloat64() * 0.01
			y += r.NormFloat64() * 0.01
		}
		pts = append(pts, geom.Point{X: x, Y: y})
	}
	return pts
}

// genPolygonRing emits a star-shaped (hence simple) closed ring around the
// center: random radii at sorted angles. The footprint grows with the
// vertex count — detailed polygons are big features (large lakes), terse
// ones are small parcels — spanning roughly 1-200 km, the scale of real
// vector features, dense enough that co-located layers produce join
// candidates.
func genPolygonRing(pts []geom.Point, r *rand.Rand, c geom.Point, verts int) []geom.Point {
	base := clampTo(0.004*float64(verts), 0.01, 2.0) * (0.5 + r.Float64())
	for i := 0; i < verts; i++ {
		angle := 2 * math.Pi * float64(i) / float64(verts)
		radius := base * (0.5 + r.Float64())
		pts = append(pts, geom.Point{X: c.X + radius*math.Cos(angle), Y: c.Y + radius*math.Sin(angle)})
	}
	return append(pts, pts[0]) // close the ring
}

// appendRecordWKT renders one record as WKT text (no trailing newline).
func appendRecordWKT(buf []byte, shape geom.Type, pts []geom.Point) []byte {
	switch shape {
	case geom.TypePoint:
		buf = append(buf, "POINT ("...)
		buf = appendCoord(buf, pts[0].X, pts[0].Y)
		return append(buf, ')')
	case geom.TypeLineString:
		buf = append(buf, "LINESTRING ("...)
	default:
		buf = append(buf, "POLYGON (("...)
	}
	for i, p := range pts {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendCoord(buf, p.X, p.Y)
	}
	if shape == geom.TypeLineString {
		return append(buf, ')')
	}
	return append(buf, "))"...)
}

// appendRecordWKB renders one record as a length-prefixed WKB record. The
// geometry headers may alias the scratch vertex buffer because the record
// is serialized before the buffer is reused.
func appendRecordWKB(buf []byte, shape geom.Type, pts []geom.Point) []byte {
	switch shape {
	case geom.TypePoint:
		return wkb.AppendFramed(buf, pts[0])
	case geom.TypeLineString:
		return wkb.AppendFramed(buf, &geom.LineString{Pts: pts})
	default:
		return wkb.AppendFramed(buf, &geom.Polygon{Shell: pts})
	}
}
