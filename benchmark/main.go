// Command benchmark is the repository's performance benchmark: four
// workloads over the MPI-Vector-IO pipeline, run at GOMAXPROCS=1 in a
// fixed 2-rank world, timed by the median of their ops, with exact
// allocation counts and a separate traced pass that attributes each op
// to the layers it crosses. See README.md.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	benchmark -aa <N>
//
// Run it through run.sh, which also sets GODEBUG=madvdontneed=0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// traceDir is where the traced pass leaves its span files, relative to
// the repository root the benchmark is run from (ignored by .gitignore).
const traceDir = "benchmark/out"

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"ingest_wkt", "partition_wkb", "join_polys", "serve_range"}

// runWorkload dispatches one workload's end-to-end or traced run.
func runWorkload(name string, cfg config, trace bool, outDir string) (*result, error) {
	if trace {
		return runTraced(name, cfg, outDir)
	}
	for _, b := range batches {
		if b.name == name {
			return runBatch(b, cfg)
		}
	}
	if name == "serve_range" {
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func main() {
	workload := flag.String("workload", "", "workload to run: ingest_wkt, partition_wkb, join_polys or serve_range")
	seed := flag.Int64("seed", 0, "input seed: added to each dataset's generator seed and to the query stream's")
	seconds := flag.Float64("seconds", 20, "wall time of the timed pass")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
	aa := flag.Int("aa", 0, "A/A mode: run two interleaved sets of this many full runs and check them against the bounds in BENCHMARK.json")
	flag.Parse()

	if *aa > 0 {
		ok, err := runAA(*aa, "BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(2)
		}
		return
	}

	// One P for the whole process: the second hardware thread is left to
	// the OS and the host's neighbours (README "Why GOMAXPROCS=1").
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(1)

	start := time.Now()
	res, err := runWorkload(*workload, defaultConfig(*seed, *seconds), *trace != 0, traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s is %v\n", name, m.Value)
			os.Exit(1)
		}
	}
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d ranks=%d %s %s/%s; workload %s wall %.1f s\n",
		nproc, runtime.GOMAXPROCS(0), ranks, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		*workload, time.Since(start).Seconds())
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
