package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/wkt"
)

// config is everything a run is parameterised by. The command line sets
// only seed and budget; the tests shrink the datasets and the op counts.
type config struct {
	seed   int64
	budget time.Duration // wall time of the timed pass
	minOps int           // floor on timed batch ops
	// Floors and counts for serve_range, whose unit is one cycle of
	// cycleSide^2 requests.
	minCycles, memCycles int
	shrink               float64 // multiplies every dataset's scale divisor
	setups               int     // input rebuilds behind setup_s
	warmups              int     // untimed, checked ops before the timed pass
	memOps               int     // ops of the separate memory pass
	traced               int     // ops of the traced pass
}

func defaultConfig(seed int64, seconds float64) config {
	return config{
		seed: seed, budget: time.Duration(seconds * float64(time.Second)),
		minOps: 30, minCycles: 8, memCycles: 2,
		shrink: 1, setups: 5, warmups: 3, memOps: 7, traced: 5,
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed above the result
	// pinned are the run's exact output counts: a pure function of the
	// seed, so two runs of one seed must agree on every one of them.
	pinned map[string]float64
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// distribution prints n, p50, p90, max of a timing sample.
func distribution(xs []float64, unit string, scale float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("n=%d p50=%.3f p90=%.3f max=%.3f %s",
		len(s), quantile(s, 0.5)*scale, quantile(s, 0.9)*scale, s[len(s)-1]*scale, unit)
}

// batchTail is the percentile a batch workload reports as latency_us_p99.
// A run has 30-100 ops, which support no 99th percentile. The highest one
// with ten samples beyond it (p84-p90) spread 11 % and 17 % over two sets
// of ten ingest_wkt runs whose medians spread 3 % and 12 %; the upper
// quartile spreads about as the median does (6 % against 5 % over eight
// same-seed partition_wkb runs), so the upper quartile it is.
const batchTail = 0.75

// runBatch measures one batch workload end to end (--trace 0).
func runBatch(b batch, cfg config) (*result, error) {
	res := &result{}
	var setups []float64
	var in []*layer
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		var err error
		if in, err = b.build(cfg.seed, cfg.shrink); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	size := inputBytes(in)

	// The plain single-process run of the same problem pins the outputs.
	base, err := b.op(in, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: 1-rank baseline: %w", b.name, err)
	}
	// The virtual clock depends on the world size, so the first 2-rank op
	// pins it; every later op must repeat it bitwise.
	want, err := b.op(in, ranks)
	if err != nil {
		return nil, fmt.Errorf("%s: first op: %w", b.name, err)
	}
	res.count(1, 0)
	if !want.sameOutput(base) {
		res.count(0, 1)
		res.notef("first %d-rank op disagrees with the 1-rank baseline: %+v vs %+v", ranks, want, base)
	}

	warm := runBatchOps(b, in, want, cfg.warmups, 0)
	res.count(warm.attempted, warm.failed)
	run := runBatchOps(b, in, want, cfg.minOps, cfg.budget)
	res.count(run.attempted, run.failed)

	var memFailed int
	peak, err := peakLiveMB(cfg.memOps, func() error {
		got, err := b.op(in, ranks)
		if got != want {
			memFailed++
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: memory pass: %w", b.name, err)
	}
	res.count(cfg.memOps, memFailed)

	sorted := append([]float64(nil), run.seconds...)
	sort.Float64s(sorted)
	p50 := quantile(sorted, 0.5)
	tail := quantile(sorted, batchTail)
	n := float64(len(run.seconds))
	allocPerOp := float64(run.mem.totalAlloc) / n

	res.set("setup_s", median(setups), "s")
	res.set("throughput_mb_s", float64(size)/1e6/p50, "MB/s")
	res.set("peak_heap_mb", peak, "MB")
	res.set("alloc_mb_per_op", allocPerOp/1e6, "MB")
	// One op is one request of the closed loop: the request-shaped metrics
	// are views of the same op sample (README "Metrics on every workload").
	res.set("qps", 1/p50, "1/s")
	res.set("latency_us_p50", p50*1e6, "us")
	res.set("latency_us_p99", tail*1e6, "us")
	res.set("alloc_kb_per_req", allocPerOp/1e3, "kB")

	res.pinned = map[string]float64{
		"input_bytes": float64(size), "records": float64(want.records), "bytes_read": float64(want.bytesRead),
		"geoms_recv": float64(want.geomsRecv), "pairs": float64(want.pairs), "virtual_total_s": want.virtual,
	}
	res.notef("%s seed=%d input=%.3f MB records=%d bytes_read=%d geoms_recv=%d pairs=%d virtual_total_s=%v",
		b.name, cfg.seed, float64(size)/1e6, want.records, want.bytesRead, want.geomsRecv, want.pairs, want.virtual)
	res.notef("op wall: %s p%.0f=%.3f ms; setup: %s; memory pass %d ops",
		distribution(run.seconds, "ms", 1e3), batchTail*100, tail*1e3, distribution(setups, "s", 1), cfg.memOps)
	res.notef("runtime over timed ops: gc_cycles/op=%.2f gc_cpu_share=%.4f mallocs/op=%.0f",
		float64(run.mem.gcCycles)/n, run.mem.gcCPU/sum(run.seconds), float64(run.mem.mallocs)/n)
	return res, nil
}

// serveInputs is the built serve_range problem.
type serveInputs struct {
	lakes *layer
	rects []geom.Envelope
}

func buildServe(cfg config) (*serveInputs, error) {
	l, err := genLayer(datagen.Lakes(), serveLakesScale*cfg.shrink, datagen.EncodingWKT, cfg.seed)
	if err != nil {
		return nil, err
	}
	return &serveInputs{lakes: l, rects: queryCycle(cfg.seed)}, nil
}

// geomKey identifies a geometry across the copies the exchange makes of
// it: generated polygons never share both envelope and vertex count.
type geomKey struct {
	env geom.Envelope
	n   int
}

func keyOf(g geom.Geometry) geomKey { return geomKey{g.Envelope(), g.NumPoints()} }

// parseAll parses every record of a WKT layer in the harness — the input
// of the brute-force oracle.
func parseAll(l *layer) ([]geom.Geometry, error) {
	recs, err := splitRecords(l)
	if err != nil {
		return nil, err
	}
	out := make([]geom.Geometry, 0, len(recs))
	for _, rec := range recs {
		g, err := wkt.Parse(rec)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", l.file.Name(), err)
		}
		out = append(out, g)
	}
	return out, nil
}

// checkIdentities answers a seeded sample of the rectangles through the
// service and compares each answer, geometry by geometry, with a scan of
// every polygon of the layer. Returns requests checked and requests wrong.
func checkIdentities(s *standing, in *serveInputs, firstID uint64, sample int, seed int64) (int, int, error) {
	all, err := parseAll(in.lakes)
	if err != nil {
		return 0, 0, err
	}
	r := rand.New(rand.NewSource(seed))
	wrong := 0
	sample = min(sample, len(in.rects))
	for i, qi := range r.Perm(len(in.rects))[:sample] {
		q := in.rects[qi]
		res, err := s.svc.Range(firstID+uint64(i), q)
		if err != nil {
			return i, wrong, err
		}
		want := make(map[geomKey]int)
		qPoly := q.ToPolygon()
		for _, g := range all {
			if geom.Intersects(g, qPoly) {
				want[keyOf(g)]++
			}
		}
		ok := int64(len(res.Matches)) == res.Pairs
		for _, g := range res.Matches {
			want[keyOf(g)]--
		}
		for _, c := range want {
			ok = ok && c == 0
		}
		if !ok {
			wrong++
		}
	}
	return sample, wrong, nil
}

// identitySample is how many requests the brute-force oracle checks.
const identitySample = 256

// runServe measures serve_range end to end (--trace 0).
func runServe(cfg config) (*result, error) {
	res := &result{}
	var setups, standups []float64
	var in *serveInputs
	var s *standing
	var standMem memCounters
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			if err := s.down(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = buildServe(cfg); err != nil {
			return nil, err
		}
		m0 := readMem()
		t1 := time.Now()
		if s, err = standUp(in.lakes, ranks); err != nil {
			return nil, err
		}
		standups = append(standups, time.Since(t1).Seconds())
		standMem.addDelta(m0, readMem())
		setups = append(setups, time.Since(t0).Seconds())
	}
	size := in.lakes.file.Size()

	// The 1-rank baseline pins every request's pair count.
	want := make([]int64, len(in.rects))
	b1, err := standUp(in.lakes, 1)
	if err != nil {
		return nil, err
	}
	for qi, q := range in.rects {
		r, err := b1.svc.Range(uint64(qi), q)
		if err != nil {
			return nil, fmt.Errorf("serve_range: 1-rank baseline: %w", err)
		}
		want[qi] = r.Pairs
	}
	if err := b1.down(); err != nil {
		return nil, err
	}

	var nextID uint64
	checked, wrong, err := checkIdentities(s, in, nextID, identitySample, cfg.seed)
	if err != nil {
		return nil, err
	}
	nextID += uint64(checked)
	res.count(checked, wrong)

	warm := runServeCycles(s.svc, in.rects, want, nextID, serveClients, 1, 0)
	nextID += uint64(warm.attempted)
	res.count(warm.attempted, warm.failed)
	run := runServeCycles(s.svc, in.rects, want, nextID, serveClients, cfg.minCycles, cfg.budget)
	res.count(run.attempted, run.failed)
	if err := s.down(); err != nil {
		return nil, err
	}

	// Memory pass: the heap a fresh service holds while it serves — the
	// standing index plus every answer it retains until Close — after a
	// fixed number of cycles, so it weighs the same every run. Serving only
	// ever adds to it, so its end is its peak, and one collection there
	// reads it exactly. The stand-up transient before it (about twice as
	// large, and 127-140 MB from one stand-up to the next, as the ranks'
	// buffers happen to overlap) is not part of it: its cost shows in
	// alloc_mb_per_op.
	runtime.GC()
	base := readLive()
	ms, err := standUp(in.lakes, ranks)
	if err != nil {
		return nil, fmt.Errorf("serve_range: memory pass: %w", err)
	}
	mem := runServeCycles(ms.svc, in.rects, want, 0, serveClients, cfg.memCycles, 0)
	runtime.GC()
	peak := float64(max(readLive(), base)-base) / 1e6
	if err := ms.down(); err != nil {
		return nil, fmt.Errorf("serve_range: memory pass: %w", err)
	}
	res.count(mem.attempted, mem.failed)

	lat := append([]float64(nil), run.latencies...)
	sort.Float64s(lat)
	cycle := median(run.seconds)
	var pairsPerCycle int64
	for _, p := range want {
		pairsPerCycle += p
	}

	res.set("setup_s", median(setups), "s")
	res.set("qps", float64(len(in.rects))/cycle, "1/s")
	res.set("latency_us_p50", quantile(lat, 0.5), "us")
	res.set("latency_us_p99", quantile(lat, 0.99), "us")
	res.set("peak_heap_mb", peak, "MB")
	res.set("alloc_kb_per_req", float64(run.mem.totalAlloc)/float64(len(lat))/1e3, "kB")
	// The service's batch op is standing the index up from the file.
	res.set("throughput_mb_s", float64(size)/1e6/median(standups), "MB/s")
	res.set("alloc_mb_per_op", float64(standMem.totalAlloc)/float64(len(standups))/1e6, "MB")

	res.pinned = map[string]float64{"input_bytes": float64(size), "pairs_per_cycle": float64(pairsPerCycle)}
	res.notef("serve_range seed=%d input=%.3f MB rectangles=%d clients=%d pairs_per_cycle=%d identity_checked=%d",
		cfg.seed, float64(size)/1e6, len(in.rects), serveClients, pairsPerCycle, checked)
	res.notef("cycle wall: %s; request latency: n=%d p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f max=%.1f us",
		distribution(run.seconds, "ms", 1e3), len(lat), quantile(lat, 0.5), quantile(lat, 0.9),
		quantile(lat, 0.99), quantile(lat, 0.999), lat[len(lat)-1])
	res.notef("stand-up: %s; setup: %s; memory pass %d cycles",
		distribution(standups, "s", 1), distribution(setups, "s", 1), cfg.memCycles)
	n := float64(len(run.seconds))
	res.notef("runtime over timed cycles: gc_cycles/cycle=%.2f gc_cpu_share=%.4f mallocs/req=%.1f",
		float64(run.mem.gcCycles)/n, run.mem.gcCPU/sum(run.seconds), float64(run.mem.mallocs)/float64(len(lat)))
	return res, nil
}
