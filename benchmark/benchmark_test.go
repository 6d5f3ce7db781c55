package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// tiny shrinks every dataset 16x and runs two ops of everything: a smoke
// run of a second or two per workload, not a measurement.
func tiny(seed int64) config {
	return config{
		seed: seed, minOps: 2, minCycles: 1, memCycles: 1,
		shrink: 16, setups: 1, warmups: 1, memOps: 1, traced: 2,
	}
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkMetrics asserts a result carries exactly the wanted names, each
// once, each with the manifest's unit and a finite value.
func checkMetrics(t *testing.T, label string, res *result, want map[string]string) {
	t.Helper()
	if res.Failed != 0 {
		t.Errorf("%s: %d of %d ops failed: %v", label, res.Failed, res.Attempted, res.notes)
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", label, res.Attempted)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", label, name, m.Value)
		}
	}
	for name, m := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: metric %q unit %q breaks the naming rules", label, name, m.Unit)
		}
	}
}

// TestSmoke runs every workload end to end twice and traced once at tiny
// scale: every metric of BENCHMARK.json is emitted exactly once with its
// unit, the pinned counts repeat exactly, the allocation metrics repeat to
// 1 %, and the span file is well formed.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mf := loadManifest(t)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range mf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range mf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(mf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(mf.Workloads), len(workloadNames))
	}

	out := t.TempDir()
	for i, name := range workloadNames {
		if mf.Workloads[i].Name != name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, mf.Workloads[i].Name, name)
		}
		first, err := runWorkload(name, tiny(1), false, out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, name, first, endToEnd)
		again, err := runWorkload(name, tiny(1), false, out)
		if err != nil {
			t.Fatalf("%s again: %v", name, err)
		}
		for k, v := range first.pinned {
			if again.pinned[k] != v {
				t.Errorf("%s: pinned %s is %v then %v", name, k, v, again.pinned[k])
			}
		}
		for _, k := range []string{"alloc_mb_per_op", "alloc_kb_per_req"} {
			a, b := first.Metrics[k].Value, again.Metrics[k].Value
			if math.Abs(a-b) > 0.01*a && !raceEnabled {
				t.Errorf("%s: %s is %v then %v", name, k, a, b)
			}
		}

		traced, err := runWorkload(name, tiny(1), true, out)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		checkMetrics(t, name+" traced", traced, perLayer)
		checkSpanFile(t, filepath.Join(out, "trace_"+name+"_seed1.json"))
	}
}

// checkSpanFile asserts every span has a live parent, lies inside it, and
// has a non-negative self time.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ts   float64
			Dur  float64
			Args struct {
				ID, Parent int
				SelfUs     float64 `json:"self_us"`
			}
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	type iv struct{ lo, hi float64 }
	byID := map[int]iv{}
	for _, e := range file.TraceEvents {
		byID[e.Args.ID] = iv{e.Ts, e.Ts + e.Dur}
	}
	const slack = 1e-3 // microseconds of float rounding
	for _, e := range file.TraceEvents {
		if e.Dur < 0 || e.Args.SelfUs < -slack {
			t.Errorf("%s: span %d %s has duration %v, self time %v", path, e.Args.ID, e.Name, e.Dur, e.Args.SelfUs)
		}
		if e.Args.Parent == 0 {
			continue
		}
		p, ok := byID[e.Args.Parent]
		if !ok {
			t.Errorf("%s: span %d %s names parent %d, which does not exist", path, e.Args.ID, e.Name, e.Args.Parent)
			continue
		}
		if e.Ts < p.lo-slack || e.Ts+e.Dur > p.hi+slack {
			t.Errorf("%s: span %d %s [%v,%v] leaves its parent [%v,%v]", path, e.Args.ID, e.Name, e.Ts, e.Ts+e.Dur, p.lo, p.hi)
		}
	}
}

// TestSeeds: another seed is another input, under the same metric names.
func TestSeeds(t *testing.T) {
	digest := func(seed int64) map[string]uint64 {
		out := map[string]uint64{}
		for _, b := range batches {
			in, err := b.build(seed, 64)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, l := range in {
				data := make([]byte, l.file.Size())
				l.file.ReadAt(data, 0)
				h.Write(data)
			}
			out[b.name] = h.Sum64()
		}
		h := fnv.New64a()
		for _, q := range queryCycle(seed) {
			fmt.Fprintln(h, q.MinX, q.MinY, q.MaxX, q.MaxY)
		}
		out["serve_range queries"] = h.Sum64()
		return out
	}
	one, same, two := digest(1), digest(1), digest(2)
	for name, d := range one {
		if same[name] != d {
			t.Errorf("%s: seed 1 generated two different inputs", name)
		}
		if two[name] == d {
			t.Errorf("%s: seeds 1 and 2 generated the same input", name)
		}
	}
}

// TestQuartiles pins the spread rule to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	want := [3]float64{2.75, 5.5, 8.25} // statistics.quantiles(range(1, 11), n=4)
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// TestManifest checks BENCHMARK.json against the limits of its contract.
func TestManifest(t *testing.T) {
	mf := loadManifest(t)
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", mf.RunSeconds)
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range mf.EndToEnd {
		if seen[m.Name] || !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end metric %q (unit %q) is repeated or misnamed", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}
