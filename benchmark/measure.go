package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/serve"
)

// median is the benchmark's only timing estimator (README "Why median").
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile is the nearest-rank p-quantile of an ascending slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// memCounters is the cumulative runtime accounting an op is bracketed
// with; deltas of it are exact counts, not samples.
type memCounters struct {
	totalAlloc, mallocs uint64
	gcCycles            uint32
	gcCPU               float64 // seconds; the runtime brings it up to date at the end of each cycle
}

var cpuSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return memCounters{
		totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: ms.NumGC,
		gcCPU: cpuSamples[0].Value.Float64(),
	}
}

func (a *memCounters) addDelta(from, to memCounters) {
	a.totalAlloc += to.totalAlloc - from.totalAlloc
	a.mallocs += to.mallocs - from.mallocs
	a.gcCycles += to.gcCycles - from.gcCycles
	a.gcCPU += to.gcCPU - from.gcCPU
}

// timed is the outcome of one timed pass.
type timed struct {
	seconds   []float64   // wall time of each op (batch) or cycle (serve)
	latencies []float64   // serve only: per-request microseconds
	mem       memCounters // summed over the timed regions only
	attempted int
	failed    int
}

// runBatchOps runs b's op in a closed loop: collect garbage, bracket the
// op with the runtime counters, time it, check its output. It stops once
// both minOps ops and budget seconds of wall time are behind it.
func runBatchOps(b batch, in []*layer, want counts, minOps int, budget time.Duration) timed {
	var t timed
	start := time.Now()
	for len(t.seconds) < minOps || time.Since(start) < budget {
		runtime.GC()
		m0 := readMem()
		t0 := time.Now()
		got, err := b.op(in, ranks)
		dt := time.Since(t0)
		t.mem.addDelta(m0, readMem())
		t.seconds = append(t.seconds, dt.Seconds())
		t.attempted++
		if err != nil || got != want {
			t.failed++
			fmt.Printf("# %s op %d failed: err=%v got=%+v want=%+v\n", b.name, t.attempted, err, got, want)
		}
	}
	return t
}

// runServeCycles drives the resident service in a closed loop from the
// given number of client goroutines. One cycle is every rectangle of rects
// once, client k taking requests k, k+clients, ...; a cycle's wall time
// runs from the release of the clients to the return of the last one.
// Every answer's pair count is checked against want. Request ids continue
// from firstID and stay unique for the life of the service.
func runServeCycles(svc *serve.Service, rects []geom.Envelope, want []int64, firstID uint64, clients, minCycles int, budget time.Duration) timed {
	var t timed
	start := time.Now()
	for len(t.seconds) < minCycles || time.Since(start) < budget {
		lat := make([]float64, len(rects))
		var failed atomic.Int64
		base := firstID + uint64(len(t.seconds)*len(rects))
		m0 := readMem()
		var wg sync.WaitGroup
		t0 := time.Now()
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for qi := k; qi < len(rects); qi += clients {
					r0 := time.Now()
					res, err := svc.Range(base+uint64(qi), rects[qi])
					lat[qi] = float64(time.Since(r0).Nanoseconds()) / 1e3
					if err != nil || res.Pairs != want[qi] {
						failed.Add(1)
					}
				}
			}(k)
		}
		wg.Wait()
		dt := time.Since(t0)
		t.mem.addDelta(m0, readMem())
		t.seconds = append(t.seconds, dt.Seconds())
		t.latencies = append(t.latencies, lat...)
		t.attempted += len(rects)
		t.failed += int(failed.Load())
	}
	return t
}

// liveWatcher records the largest live heap any garbage-collection cycle
// marks while it is armed. A time-based HeapAlloc sampler reads garbage
// along with the live heap, and how much depends on where the collector
// happens to be; the live heap at mark termination depends only on how
// far the program has got. The hook is a finalizer on a sentinel object
// that re-arms itself, so it runs once per cycle — provided the finalizer
// goroutine gets to run before the next cycle ends, which is why the
// memory pass gives it a P of its own.
type liveWatcher struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type sentinel struct{ _ [32]byte }

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
var liveMu sync.Mutex

func readLive() uint64 {
	liveMu.Lock()
	defer liveMu.Unlock()
	metrics.Read(liveSample)
	return liveSample[0].Value.Uint64()
}

func watchLive() *liveWatcher {
	w := &liveWatcher{}
	w.arm()
	return w
}

func (w *liveWatcher) arm() {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		w.observe()
		if !w.stopped.Load() {
			w.arm()
		}
	})
}

func (w *liveWatcher) observe() {
	v := readLive()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends the watch and returns the peak in bytes.
func (w *liveWatcher) stop() uint64 {
	w.stopped.Store(true)
	w.observe()
	return w.peak.Load()
}

// memoryPassGCPercent makes collection cycles frequent during the memory
// pass, so the watcher sees the live heap at every few percent of growth.
const memoryPassGCPercent = 3

// peakLiveMB runs n ops under the live-heap watcher and returns the median
// over the ops of each op's peak live heap above the post-GC baseline, in
// MB. The median, because how the two ranks' transient buffers overlap in
// time is up to the scheduler: most ops of join_polys peak within 5 % of
// each other, one in ten 15 % higher.
//
// It is a pass of its own, so that neither the watcher nor the tight GC
// pacing touches a timed op, and the only part of the benchmark that runs
// on all the host's hardware threads: no time is measured here, the ranks
// overlap the way they would in production, and the watcher's finalizer
// runs the moment a cycle ends instead of queueing behind the ranks for
// the one P (at GOMAXPROCS=1 it saw one cycle in three, and the peak read
// 31-36 MB where it now reads 33.5-35.7).
func peakLiveMB(n int, op func() error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.NumCPU(), 2)))
	defer debug.SetGCPercent(debug.SetGCPercent(memoryPassGCPercent))
	var peaks []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		base := readLive()
		w := watchLive()
		err := op()
		peak := max(w.stop(), base)
		if err != nil {
			return 0, err
		}
		peaks = append(peaks, float64(peak-base)/1e6)
	}
	return median(peaks), nil
}
