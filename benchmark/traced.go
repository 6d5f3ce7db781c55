package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/grid"
)

// stage is one step of a workload's staged replay: a probe whose span is a
// direct child of the op's "staged" span, and the probes whose work it
// re-executes inside itself (replayed into it as children).
type stage struct {
	probe    string
	children []string
}

// view is how one workload's op decomposes into layer probes: pushed
// through the stages in order, the same inputs do the same work as the
// fused op, one layer at a time.
type view struct {
	stages []stage
	// dominant is the layer the workload exists to stress (README "Layer
	// shares"); empty for join_polys, which spreads over several.
	dominant string
	// searchKind picks which filter probe is this workload's rtree.search:
	// polygon probes (join) or rectangles (range query).
	searchKind string
}

var readStage = stage{"core.read_noparse", []string{"mpiio.read_at"}}

var views = map[string]view{
	"ingest_wkt": {
		stages:   []stage{readStage, {probe: "wkt.parse"}},
		dominant: "wkt.parse", searchKind: "rtree.search_poly",
	},
	"partition_wkb": {
		stages: []stage{readStage, {probe: "wkb.decode"},
			{"core.exchange_stream", []string{"grid.cells_for", "wkb.encode", "wkb.decode"}}},
		dominant: "core.exchange_stream", searchKind: "rtree.search_poly",
	},
	"join_polys": {
		stages: []stage{readStage, {probe: "wkt.parse"}, {probe: "core.global_envelope"},
			{"core.exchange", []string{"grid.cells_for", "wkb.encode", "wkb.decode"}},
			{probe: "rtree.bulk_load"}, {probe: "rtree.search_poly"}, {probe: "geom.intersects_poly"}},
		searchKind: "rtree.search_poly",
	},
	"serve_range": {
		stages: []stage{{probe: "grid.route"},
			{"serve.session_range", []string{"rtree.search_rect", "geom.intersects_rect"}}},
		dominant: "geom.intersects_rect", searchKind: "rtree.search_rect",
	},
}

// prepareWorkload builds the named workload's inputs once and prepares the
// probes' view of them, and returns it with the workload's fused op. For a
// batch workload it first runs cfg.traced fused ops in the heap the timed
// pass runs them in — the inputs and nothing else — and returns them as
// lean: the collector's pacing follows the live heap, and next to the
// probes' prepared data the same op sees a fifth of the cycles.
func prepareWorkload(name string, cfg config) (e *probeEnv, fused func() (counts, error), lean *timed, err error) {
	world16, err := grid.New(world, 16, 16)
	if err != nil {
		return nil, nil, nil, err
	}
	rects := queryCycle(cfg.seed)
	for _, b := range batches {
		if b.name != name {
			continue
		}
		in, err := b.build(cfg.seed, cfg.shrink)
		if err != nil {
			return nil, nil, nil, err
		}
		want, err := b.op(in, ranks)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: first op: %w", name, err)
		}
		t := runBatchOps(b, in, want, cfg.traced, 0)
		if name == "join_polys" {
			e, err = prepare(in, nil, false, rects) // the join sizes its own grid
		} else {
			e, err = prepare(in, world16, true, rects)
		}
		return e, func() (counts, error) { return b.op(in, ranks) }, &t, err
	}
	si, err := buildServe(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	// ServeQuery lays 256 cells over the world and leaves DirectGrid off.
	// The fused op is one client walking the cycle through the Service.
	e, err = prepare([]*layer{si.lakes}, world16, false, rects)
	return e, func() (counts, error) {
		n, err := probeByName("serve.service_range").run(e)
		return counts{pairs: int64(n["pairs"])}, err
	}, nil, err
}

// runTraced is the --trace 1 run: cfg.traced ops, each executed fused
// (once with the tracer on, once with it off), then staged — every probe
// of the workload's view under a "staged" span — then the remaining layer
// probes on the same data. It returns the per-layer metrics and writes the
// span file.
func runTraced(name string, cfg config, outDir string) (*result, error) {
	v, ok := views[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	res := &result{}
	e, fused, lean, err := prepareWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	defer e.svc.down() // the probes' Service only parks behind Serve, which cannot fail

	// From here on the collector runs only where it is called, between the
	// measured calls. Next to the probes' prepared data — 130-330 MB live,
	// against the timed pass's 35 MB file — a cycle marks that much more,
	// and the op whose collections are 1 % of it in the timed pass (the lean
	// ops above say how much) spent half of itself in them here.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	tr := newTracer()
	// staged are the view's stages; inView adds the probes replayed into
	// them, which together are what the fused op is compared with.
	staged, inView := make(map[string]bool), make(map[string]bool)
	for _, st := range v.stages {
		staged[st.probe], inView[st.probe] = true, true
		for _, c := range st.children {
			inView[c] = true
		}
	}
	durs := make(map[string][]float64)          // probe -> seconds per op
	last := make(map[string]map[string]float64) // probe -> counts (identical every op)
	var fusedOn, fusedOff, overhead, coverage, dispatch []float64
	var fusedMem memCounters
	var want counts

	measure := func(p probe, parent, op int) (time.Duration, error) {
		// A probe of the view gets the same discarded first run as the fused
		// op: whatever follows another probe's large allocations runs a fifth
		// slower than its own repeat.
		if inView[p.name] {
			if _, err := p.run(e); err != nil {
				return 0, fmt.Errorf("probe %s: %w", p.name, err)
			}
		}
		runtime.GC()
		m0 := readMem()
		id := tr.begin(p.name, parent, op)
		t0 := time.Now()
		n, err := p.run(e)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", p.name, err)
		}
		var mem memCounters
		mem.addDelta(m0, readMem())
		if n == nil {
			n = make(map[string]float64)
		}
		n["mallocs"], n["alloc_bytes"] = float64(mem.mallocs), float64(mem.totalAlloc)
		if prev, seen := last[p.name]; seen && !sameCounts(prev, n) {
			res.count(0, 1)
			res.notef("probe %s: counts changed between ops: %v then %v", p.name, prev, n)
		}
		last[p.name] = n
		durs[p.name] = append(durs[p.name], d.Seconds())
		return d, nil
	}

	for op := 1; op <= cfg.traced; op++ {
		root := tr.begin("op", 0, op)

		// Fused, tracer on and off, alternating which goes first, after one
		// discarded fused op (see measure).
		if _, err := fused(); err != nil {
			return nil, fmt.Errorf("%s: fused op: %w", name, err)
		}
		var onD, offD time.Duration
		for k := 0; k < 2; k++ {
			on := (k == 0) == (op%2 == 1)
			var t *tracer
			if on {
				t = tr
			}
			runtime.GC()
			m0 := readMem()
			id := t.begin("fused", root, op)
			t0 := time.Now()
			got, err := fused()
			d := time.Since(t0)
			t.end(id)
			fusedMem.addDelta(m0, readMem())
			if err != nil {
				return nil, fmt.Errorf("%s: fused op: %w", name, err)
			}
			if op == 1 && k == 0 {
				want = got
			}
			res.count(1, 0)
			if got != want {
				res.count(0, 1)
				res.notef("fused op %d: %+v, first was %+v", op, got, want)
			}
			if on {
				onD = d
			} else {
				offD = d
			}
		}
		fusedOn, fusedOff = append(fusedOn, onD.Seconds()), append(fusedOff, offD.Seconds())
		overhead = append(overhead, (onD-offD).Seconds()/offD.Seconds())

		// Probes a stage re-executes are measured first, on their own, so
		// the stage can carry them as children.
		other := tr.begin("probes", root, op)
		opDur := make(map[string]time.Duration)
		for _, p := range probes {
			if staged[p.name] {
				continue
			}
			d, err := measure(p, other, op)
			if err != nil {
				return nil, err
			}
			opDur[p.name] = d
		}
		tr.end(other)

		sid := tr.begin("staged", root, op)
		var stagedSum time.Duration
		for _, st := range v.stages {
			d, err := measure(probeByName(st.probe), sid, op)
			if err != nil {
				return nil, err
			}
			opDur[st.probe] = d
			stagedSum += d
		}
		tr.end(sid)
		// Replay children now that every stage of this op has a duration
		// (a stage's child may itself be a stage, as wkb.decode is on
		// partition_wkb).
		tr.replayStages(sid, v.stages, opDur)
		tr.end(root)
		coverage = append(coverage, stagedSum.Seconds()/offD.Seconds())

		// Dispatch overhead, paired request by request: most requests are
		// light, so the median difference is not the heavy requests' noise.
		diffs := make([]float64, len(e.rects))
		for i := range diffs {
			diffs[i] = e.serviceNs[i] - e.sessionNs[i]
		}
		dispatch = append(dispatch, median(diffs))
	}

	// Outputs of the staged replay must be the fused op's outputs.
	res.count(1, 0)
	if name == "join_polys" && int64(last["geom.intersects_poly"]["accepted"]) != want.pairs {
		res.count(0, 1)
		res.notef("staged join accepted %v pairs, fused %d", last["geom.intersects_poly"]["accepted"], want.pairs)
	}
	if last["geom.intersects_rect"]["accepted"] != last["serve.service_range"]["pairs"] ||
		last["serve.session_range"]["pairs"] != last["serve.service_range"]["pairs"] ||
		last["spatial.range_query"]["pairs"] != last["serve.service_range"]["pairs"] {
		res.count(0, 1)
		res.notef("range answers disagree: refine %v, session %v, service %v, batch %v",
			last["geom.intersects_rect"]["accepted"], last["serve.session_range"]["pairs"],
			last["serve.service_range"]["pairs"], last["spatial.range_query"]["pairs"])
	}
	if last["spatial.join"]["pairs"] != last["geom.intersects_poly"]["accepted"] {
		res.count(0, 1)
		res.notef("join answers disagree: refine %v, spatial.Join %v",
			last["geom.intersects_poly"]["accepted"], last["spatial.join"]["pairs"])
	}

	// host.p2_speedup: the fused op with both hardware threads against one.
	nproc := runtime.NumCPU()
	var p1, pn []float64
	for i := 0; i < cfg.traced; i++ {
		for _, procs := range []int{1, max(nproc, 2)} {
			prev := runtime.GOMAXPROCS(procs)
			runtime.GC()
			t0 := time.Now()
			got, err := fused()
			d := time.Since(t0).Seconds()
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return nil, fmt.Errorf("%s: fused op at GOMAXPROCS=%d: %w", name, procs, err)
			}
			res.count(1, 0)
			if got != want {
				res.count(0, 1)
			}
			if procs == 1 {
				p1 = append(p1, d)
			} else {
				pn = append(pn, d)
			}
		}
	}

	med := func(name string) float64 { return median(durs[name]) }
	n := func(probe, key string) float64 { return last[probe][key] }
	recs := float64(len(e.geoms))
	fb := e.fileBytes()

	res.set("pfs.read_mb_s", fb/1e6/med("pfs.read"), "MB/s")
	res.set("mpiio.read_at_mb_s", fb/1e6/med("mpiio.read_at"), "MB/s")
	res.set("mpiio.read_at_all_mb_s", fb/1e6/med("mpiio.read_at_all"), "MB/s")
	res.set("core.read_noparse_mb_s", fb/1e6/med("core.read_noparse"), "MB/s")
	res.set("core.boundary_msgs_per_op", n("core.read_noparse", "msgs"), "count")
	res.set("core.boundary_bytes_per_op", n("core.read_noparse", "bytes"), "B")
	res.set("wkt.parse_mb_s", n("wkt.parse", "bytes")/1e6/med("wkt.parse"), "MB/s")
	res.set("wkt.parse_ns_per_vertex", med("wkt.parse")*1e9/float64(e.verts), "ns")
	res.set("wkt.parse_allocs_per_rec", n("wkt.parse", "mallocs")/recs, "count")
	res.set("wkb.decode_mb_s", n("wkb.decode", "bytes")/1e6/med("wkb.decode"), "MB/s")
	res.set("wkb.encode_mb_s", n("wkb.encode", "bytes")/1e6/med("wkb.encode"), "MB/s")
	res.set("wkb.decode_allocs_per_rec", n("wkb.decode", "mallocs")/recs, "count")
	res.set("grid.cells_for_ns", med("grid.cells_for")*1e9/recs, "ns")
	res.set("grid.replicas_per_geom", n("grid.cells_for", "cells")/recs, "count")
	res.set("core.exchange_mb_s", n("core.exchange", "bytes_sent")/1e6/med("core.exchange"), "MB/s")
	res.set("core.exchange_stream_mb_s", n("core.exchange_stream", "bytes_sent")/1e6/med("core.exchange_stream"), "MB/s")
	res.set("core.exchange_alloc_mb", n("core.exchange", "alloc_bytes")/1e6, "MB")
	res.set("core.bytes_sent_per_op", n("core.exchange", "bytes_sent"), "B")
	res.set("core.byte_imbalance", n("core.exchange", "byte_imbalance"), "ratio")
	res.set("core.geom_imbalance", n("core.exchange", "geom_imbalance"), "ratio")
	res.set("core.frames_quarantined", n("core.exchange", "quarantined"), "count")
	res.set("mpi.sendrecv_us", med("mpi.sendrecv")*1e6/(2*pingPongs), "us")
	res.set("mpi.sendrecv_1m_mb_s", float64(rendezvous*oneMiB)/1e6/med("mpi.sendrecv_1m"), "MB/s")
	res.set("mpi.allreduce_us", med("mpi.allreduce")*1e6/allreduces, "us")
	res.set("mpi.alltoallv_mb_s", n("mpi.alltoallv", "bytes")/1e6/med("mpi.alltoallv"), "MB/s")
	res.set("rtree.bulk_load_ns_per_entry", med("rtree.bulk_load")*1e9/n("rtree.bulk_load", "entries"), "ns")
	res.set("rtree.search_us", med(v.searchKind)*1e6/n(v.searchKind, "queries"), "us")
	res.set("rtree.candidates_per_query", n(v.searchKind, "candidates")/n(v.searchKind, "queries"), "count")
	res.set("geom.intersects_poly_ns_per_pair", med("geom.intersects_poly")*1e9/n("geom.intersects_poly", "pairs"), "ns")
	res.set("geom.intersects_rect_ns_per_pair", med("geom.intersects_rect")*1e9/n("geom.intersects_rect", "pairs"), "ns")
	refineKind := "geom.intersects_poly"
	if v.searchKind == "rtree.search_rect" {
		refineKind = "geom.intersects_rect"
	}
	res.set("geom.refine_accept_ratio", n(refineKind, "accepted")/n(refineKind, "pairs"), "ratio")
	res.set("spatial.build_index_ms", med("spatial.build_index")*1e3, "ms")
	res.set("spatial.join_ms", med("spatial.join")*1e3, "ms")
	res.set("spatial.range_query_ms", med("spatial.range_query")*1e3, "ms")
	res.set("costmodel.virtual_total_s", want.virtual, "s")
	reqs := float64(len(e.rects))
	res.set("serve.session_range_us", med("serve.session_range")*1e6/reqs, "us")
	res.set("serve.dispatch_overhead_us", median(dispatch)/1e3, "us")
	res.set("serve.pairs_per_req", n("serve.service_range", "pairs")/reqs, "count")
	coalesce, retained, err := e.concurrentCycle()
	if err != nil {
		return nil, err
	}
	res.set("serve.coalesce_ratio", coalesce, "ratio")
	res.set("serve.retained_heap_mb", retained, "MB")
	// The service's fused op runs over the probes' trees either way.
	fusedOps, fusedSeconds := float64(2*cfg.traced), sum(fusedOn)+sum(fusedOff)
	if lean != nil {
		res.count(lean.attempted, lean.failed)
		fusedMem, fusedOps, fusedSeconds = lean.mem, float64(len(lean.seconds)), sum(lean.seconds)
	}
	res.set("runtime.gc_cycles_per_op", float64(fusedMem.gcCycles)/fusedOps, "count")
	res.set("runtime.gc_cpu_share", fusedMem.gcCPU/fusedSeconds, "ratio")
	res.set("runtime.mallocs_per_op", float64(fusedMem.mallocs)/fusedOps, "count")
	res.set("host.p2_speedup", median(p1)/median(pn), "ratio")
	// Paired within each op: the host's speed drifts by more between ops
	// than the tracer costs.
	res.set("trace.overhead_pct", median(overhead)*100, "%")
	res.set("trace.coverage", median(coverage), "ratio")

	path := filepath.Join(outDir, fmt.Sprintf("trace_%s_seed%d.json", name, cfg.seed))
	if err := tr.writeTrace(path); err != nil {
		return nil, err
	}
	res.notef("%s seed=%d traced ops=%d fused p50=%.3f ms; spans=%d -> %s", name, cfg.seed, cfg.traced,
		median(fusedOff)*1e3, len(tr.spans), path)
	var probeLine []string
	for _, p := range probes {
		probeLine = append(probeLine, fmt.Sprintf("%s=%.1f", p.name, med(p.name)*1e3))
	}
	res.notef("probe medians, ms: %s", strings.Join(probeLine, " "))
	for _, line := range shareTable(tr.spans, v) {
		res.notef("%s", line)
	}
	return res, nil
}

func probeByName(name string) probe {
	for _, p := range probes {
		if p.name == name {
			return p
		}
	}
	panic("benchmark: no probe named " + name)
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		// Allocation counts of a world include the runtime's own goroutine
		// bookkeeping; everything else repeats exactly.
		if k == "mallocs" || k == "alloc_bytes" {
			continue
		}
		if b[k] != v {
			return false
		}
	}
	return true
}

// replayStages gives every stage of one op its children: copies of the
// durations the child probes measured in the same op.
func (t *tracer) replayStages(staged int, stages []stage, opDur map[string]time.Duration) {
	t.mu.Lock()
	ids := make(map[string]int)
	for _, s := range t.spans {
		if s.Parent == staged {
			ids[s.Name] = s.ID
		}
	}
	t.mu.Unlock()
	for _, st := range stages {
		if len(st.children) == 0 {
			continue
		}
		ds := make([]time.Duration, len(st.children))
		for i, c := range st.children {
			ds[i] = opDur[c]
		}
		t.replay(ids[st.probe], st.children, ds)
	}
}

// shareTable renders the workload's layer shares: for each layer of the
// staged replay, the median over the ops of its spans' total time and self
// time, over the median fused op. A stage's total includes the children
// replayed into it; its self time is what they leave.
func shareTable(spans []span, v view) []string {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	type times struct{ total, self float64 }   // seconds
	perLayer := make(map[string]map[int]times) // layer -> op
	var fused []float64
	for _, s := range spans {
		if s.Name == "fused" {
			fused = append(fused, s.dur().Seconds())
			continue
		}
		// A layer's share counts its spans inside the staged replay only.
		inStaged := false
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if byID[p].Name == "staged" {
				inStaged = true
			}
		}
		if !inStaged {
			continue
		}
		if perLayer[s.Name] == nil {
			perLayer[s.Name] = make(map[int]times)
		}
		t := perLayer[s.Name][s.Op]
		perLayer[s.Name][s.Op] = times{t.total + s.dur().Seconds(), t.self + self[s.ID].Seconds()}
	}
	fm := median(fused)
	names := make([]string, 0, len(perLayer))
	for name := range perLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("layer shares of the fused op (median %.3f ms): total ms, share; self ms, share", fm*1e3)}
	for _, name := range names {
		var total, selfs []float64
		for _, t := range perLayer[name] {
			total, selfs = append(total, t.total), append(selfs, t.self)
		}
		mark := ""
		if name == v.dominant {
			mark = "  <- intended dominant layer"
		}
		lines = append(lines, fmt.Sprintf("  %-24s %8.3f %5.1f%% %8.3f %5.1f%%%s", name,
			median(total)*1e3, 100*median(total)/fm, median(selfs)*1e3, 100*median(selfs)/fm, mark))
	}
	return lines
}

// concurrentCycle runs one cycle from concurrentClients clients through a
// Service over the prepared trees and reports how much admission
// coalesced (sub-requests admitted per drain round) and how much heap the
// service holds for its answered requests before Close.
func (e *probeEnv) concurrentCycle() (coalesce, retainedMB float64, err error) {
	want := make([]int64, len(e.rects))
	for i, q := range e.rects {
		for _, s := range e.sess {
			want[i] += s.Range(q, func(float64) {}, nil)
		}
	}
	runtime.GC()
	before := readLive()
	s := e.resident()
	t := runServeCycles(s.svc, e.rects, want, 0, concurrentClients, 1, 0)
	runtime.GC()
	after := readLive()
	// Without this the second collection may free whatever of e the rest of
	// the function no longer reads, and the difference goes negative.
	runtime.KeepAlive(e)
	var rounds, admitted int
	for r := 0; r < ranks; r++ {
		st := s.svc.Stats(r)
		rounds, admitted = rounds+st.Rounds, admitted+st.Admitted
	}
	if err := s.down(); err != nil {
		return 0, 0, err
	}
	if t.failed > 0 {
		return 0, 0, fmt.Errorf("concurrent cycle: %d of %d answers wrong", t.failed, t.attempted)
	}
	if after > before {
		retainedMB = float64(after-before) / 1e6
	}
	return float64(admitted) / float64(rounds), retainedMB, nil
}
