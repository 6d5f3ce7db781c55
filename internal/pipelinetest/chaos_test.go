package pipelinetest

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/wkb"
)

// Wire tag of the reader's boundary-repair messages (core's tagFragment),
// restated here so chaos rules can target the pipeline's own messages.
const chaosTagFragment = 77

// chaosWorkload is one (file, framing, strategy) instance the chaos matrix
// sweeps, with its per-mode clean baselines.
type chaosWorkload struct {
	name     string
	cfg      Config
	fileName string
	baseline map[Mode]*Result
}

func chaosWorkloads(t *testing.T) []*chaosWorkload {
	t.Helper()
	geoms := genGeoms(150, 71)
	queries := genQueries(6, 72)
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	base := func(pf *pfs.File, mk func() core.Parser, fr core.Framing, strat core.Strategy) Config {
		return Config{
			File:   pf,
			Parser: mk,
			ReadOpt: core.ReadOptions{
				BlockSize: 1 << 10, Strategy: strat, MaxGeomSize: 2 << 10,
				Framing: fr, StreamBatch: 29,
			},
			Envelope:    world,
			GridCells:   64,
			WindowCells: 7,
			Queries:     queries,
			Ranks:       3,
		}
	}
	ws := []*chaosWorkload{
		{
			name:     "delimited/message",
			cfg:      base(wktFixture(t, geoms), func() core.Parser { return core.NewWKTParser() }, nil, core.MessageBased),
			fileName: "pipeline.wkt",
		},
		{
			// Length-prefixed reads ignore the strategy: this workload runs
			// readMessageChain, and pins that Overlap changes nothing.
			name:     "length-prefixed/overlap",
			cfg:      base(wkbFixture(t, geoms), func() core.Parser { return core.NewWKBParser() }, core.LengthPrefixed(), core.Overlap),
			fileName: "pipeline.wkb",
		},
	}
	for _, w := range ws {
		w.baseline = make(map[Mode]*Result)
		for _, m := range Modes {
			w.baseline[m] = Run(t, w.cfg, m)
		}
	}
	return ws
}

// settleGoroutines waits for the goroutine count to fall back to the
// pre-run level — the no-leak half of the failure contract. The count can
// transiently overshoot (the mpi ticker and rank goroutines wind down
// asynchronously after an abort), so it polls with a deadline.
func settleGoroutines(t *testing.T, label string, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s: leaked goroutines: %d before, %d after\n%s",
				label, before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// assertAllFailed is the collective-agreement half of the failure contract:
// after an injected fault, every rank must have come back with an error
// (crashRank, when ≥ 0, is exempt — its CrashError is the world error and
// its own goroutine never returned).
func assertAllFailed(t *testing.T, label string, errs []error, worldErr error, crashRank int) {
	t.Helper()
	if worldErr == nil {
		t.Fatalf("%s: world completed despite the injected fault", label)
	}
	for r, err := range errs {
		if r == crashRank {
			continue
		}
		if err == nil {
			t.Errorf("%s: rank %d returned no error", label, r)
		}
	}
}

// assertDataEqual compares the data observables of two Results — what was
// read, indexed, and matched — ignoring timings and the virtual clock. It
// is the right comparison for absorbed faults (retries and delays charge
// virtual time by design, so the clock legitimately moves).
func assertDataEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for r := range want.Local {
		if len(got.Local[r]) != len(want.Local[r]) {
			t.Fatalf("%s: rank %d read %d geometries, want %d", label, r, len(got.Local[r]), len(want.Local[r]))
		}
		for i := range want.Local[r] {
			if got.Local[r][i] != want.Local[r][i] {
				t.Fatalf("%s: rank %d geometry %d differs", label, r, i)
			}
		}
		if got.Batches[r] != want.Batches[r] {
			t.Errorf("%s: rank %d delivered %d batches, want %d", label, r, got.Batches[r], want.Batches[r])
		}
		assertCellsEqual(t, label, r, got.IndexCard[r], want.IndexCard[r], got.IndexSet[r], want.IndexSet[r])
		if got.Indexed[r] != want.Indexed[r] {
			t.Errorf("%s: rank %d indexed %d, want %d", label, r, got.Indexed[r], want.Indexed[r])
		}
		if got.QueryPairs[r] != want.QueryPairs[r] {
			t.Errorf("%s: rank %d query pairs %d, want %d", label, r, got.QueryPairs[r], want.QueryPairs[r])
		}
		for i := range want.QueryHits[r] {
			if got.QueryHits[r][i] != want.QueryHits[r][i] {
				t.Fatalf("%s: rank %d query hit %d differs", label, r, i)
			}
		}
	}
}

// cleanRetry reruns the workload with no injection and asserts the result
// reproduces the clean baseline bitwise — a failed attempt must leave no
// residue (in the harness, the simulated FS, or the fault plan) that could
// skew the retry.
func cleanRetry(t *testing.T, label string, w *chaosWorkload, mode Mode) {
	t.Helper()
	AssertEquivalent(t, label+"/clean-retry", Run(t, w.cfg, mode), w.baseline[mode])
}

// TestChaosMatrix sweeps deterministic fault injections across every
// pipeline mode and both framings — text under Algorithm 1's ring, binary
// under the chain of readMessageChain (its workload asks for Overlap, which
// length-prefixed reads ignore) — asserting the failure contract each
// time: an injected fault ends with every rank returning an error (no hang
// — the runs themselves are the proof), no
// goroutine leaks, absorbed faults reproduce the clean data exactly, and a
// clean retry after any failed attempt reproduces the no-fault baseline
// bitwise.
func TestChaosMatrix(t *testing.T) {
	workloads := chaosWorkloads(t)

	for _, w := range workloads {
		fs := w.cfg.File.FS()
		for _, mode := range Modes {
			prefix := fmt.Sprintf("%s/%s", w.name, mode)

			t.Run(prefix+"/pfs-transient", func(t *testing.T) {
				// The leak baseline must be read inside the subtest: the
				// testing framework parks parent-test goroutines across
				// t.Run, so a count taken outside is never reachable again.
				before := runtime.NumGoroutine()
				// Two transient failures per offset: absorbed by the bounded
				// retry, so the run succeeds and reproduces the clean data.
				// Two attempts from the same plan must agree bitwise — the
				// injector replays, so the charged backoff does too.
				plan := fault.Plan{Seed: 11, Rules: []fault.Rule{fault.TransientRead(w.fileName, -1, 2)}}
				runOnce := func() *Result {
					fs.InjectReadFault(plan.New().ReadFault)
					defer fs.InjectReadFault(nil)
					return Run(t, w.cfg, mode)
				}
				first := runOnce()
				assertDataEqual(t, prefix, first, w.baseline[mode])
				AssertEquivalent(t, prefix+"/replay", runOnce(), first)
				cleanRetry(t, prefix, w, mode)
				settleGoroutines(t, prefix, before)
			})

			t.Run(prefix+"/pfs-permanent", func(t *testing.T) {
				before := runtime.NumGoroutine()
				plan := fault.Plan{Seed: 12, Rules: []fault.Rule{fault.PermanentRead(w.fileName, 0)}}
				fs.InjectReadFault(plan.New().ReadFault)
				_, errs, worldErr := RunE(w.cfg, mode)
				fs.InjectReadFault(nil)
				assertAllFailed(t, prefix, errs, worldErr, -1)
				// The read's error agreement hands every rank the cause, each
				// wrapped with %w all the way up: a rank whose error no longer
				// matches ErrInjected lost its cause to a %v wrap.
				for r, err := range errs {
					if !errors.Is(err, fault.ErrInjected) {
						t.Errorf("%s: rank %d error hides the cause: %v", prefix, r, err)
					}
				}
				cleanRetry(t, prefix, w, mode)
				settleGoroutines(t, prefix, before)
			})

			t.Run(prefix+"/mpi-drop", func(t *testing.T) {
				before := runtime.NumGoroutine()
				// Rank 1's first data-path message vanishes: its consumer
				// blocks until every rank is blocked or done, the moment
				// the runtime reports a DeadlockError carrying the per-rank
				// blocked-op dump, and the abort releases everyone else.
				cfg := w.cfg
				plan := fault.Plan{Seed: 13, Rules: []fault.Rule{fault.DropTag(1, chaosTagFragment)}}
				cfg.World = mpi.Options{Fault: plan.New()}
				_, errs, worldErr := RunE(cfg, mode)
				assertAllFailed(t, prefix, errs, worldErr, -1)
				var dl *mpi.DeadlockError
				found := false
				for _, err := range errs {
					if errors.As(err, &dl) {
						found = true
						if len(dl.Blocked) == 0 {
							t.Errorf("%s: deadlock dump has no blocked ops", prefix)
						}
					}
				}
				if !found {
					t.Errorf("%s: no rank reported a DeadlockError (world: %v)", prefix, worldErr)
				}
				cleanRetry(t, prefix, w, mode)
				settleGoroutines(t, prefix, before)
			})

			t.Run(prefix+"/mpi-delay", func(t *testing.T) {
				before := runtime.NumGoroutine()
				// A delayed message costs virtual time but no data: the run
				// succeeds with clean data, and replays deterministically.
				cfg := w.cfg
				plan := fault.Plan{Seed: 14, Rules: []fault.Rule{fault.DelayTag(1, chaosTagFragment, 0.05)}}
				cfg.World = mpi.Options{Fault: plan.New()}
				first := Run(t, cfg, mode)
				assertDataEqual(t, prefix, first, w.baseline[mode])
				cfg.World.Fault = plan.New()
				AssertEquivalent(t, prefix+"/replay", Run(t, cfg, mode), first)
				cleanRetry(t, prefix, w, mode)
				settleGoroutines(t, prefix, before)
			})

			t.Run(prefix+"/mpi-crash", func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg := w.cfg
				plan := fault.Plan{Seed: 15, Rules: []fault.Rule{fault.CrashAt(1, 10)}}
				cfg.World = mpi.Options{Fault: plan.New()}
				_, errs, worldErr := RunE(cfg, mode)
				assertAllFailed(t, prefix, errs, worldErr, 1)
				var ce *mpi.CrashError
				if !errors.As(worldErr, &ce) {
					t.Fatalf("%s: world error is not a CrashError: %v", prefix, worldErr)
				}
				if ce.Rank != 1 || ce.OpIndex != 10 {
					t.Errorf("%s: crash reported at rank %d op %d, want rank 1 op 10", prefix, ce.Rank, ce.OpIndex)
				}
				if !errors.Is(worldErr, mpi.ErrAborted) {
					t.Errorf("%s: crash teardown does not unwrap to ErrAborted: %v", prefix, worldErr)
				}
				cleanRetry(t, prefix, w, mode)
				settleGoroutines(t, prefix, before)
			})

			if mode != Materialized {
				t.Run(prefix+"/sink-error", func(t *testing.T) {
					before := runtime.NumGoroutine()
					// Rank 2's second sink delivery fails: the read settles
					// the error collectively — the failing rank reports the
					// injected error, every other rank ErrRemoteSink.
					cfg := w.cfg
					plan := fault.Plan{Seed: 16, Rules: []fault.Rule{fault.SinkErrAt(2, 1)}}
					cfg.SinkFault = plan.New().SinkFault
					_, errs, worldErr := RunE(cfg, mode)
					assertAllFailed(t, prefix, errs, worldErr, -1)
					if errs[2] == nil || !errors.Is(errs[2], fault.ErrInjected) {
						t.Errorf("%s: failing rank error = %v, want the injected sink error", prefix, errs[2])
					}
					for r := 0; r < 2; r++ {
						if errs[r] != nil && !errors.Is(errs[r], core.ErrRemoteSink) && !errors.Is(errs[r], mpi.ErrAborted) {
							t.Errorf("%s: healthy rank %d error = %v, want ErrRemoteSink", prefix, r, errs[r])
						}
					}
					cleanRetry(t, prefix, w, mode)
					settleGoroutines(t, prefix, before)
				})
			}
		}
	}
}

// TestChaosFrameCorruption drives the exchange-frame corruption point
// through the one-pass streaming pipeline (core.ReadExchange): with
// SkipBadFrames the corrupted frame is quarantined and counted while the
// pipeline completes; without it, the receiving rank fails and the whole
// world comes down with it — and a clean retry reproduces the clean run
// bitwise either way.
func TestChaosFrameCorruption(t *testing.T) {
	geoms := genGeoms(150, 73)
	pf := wktFixture(t, geoms)
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	readOpt := core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 29}
	before := runtime.NumGoroutine()

	type rankOut struct {
		cells map[int]int
		stats core.ExchangeStats
		err   error
	}
	run := func(t *testing.T, inj *fault.Injector, skipBad bool) ([3]rankOut, error) {
		t.Helper()
		var outs [3]rankOut
		worldErr := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
			g, err := grid.New(world, 8, 8)
			if err != nil {
				return err
			}
			pt := &core.Partitioner{Grid: g, WindowCells: 7, SkipBadFrames: skipBad}
			if inj != nil {
				pt.FrameFault = inj.FrameFault(c.Rank())
			}
			f := mpiio.Open(c, pf, mpiio.Hints{})
			cells, _, estats, err := core.ReadExchange(c, f, core.NewWKTParser(), readOpt, pt)
			card := make(map[int]int, len(cells))
			for cell, gs := range cells {
				card[cell] = len(gs)
			}
			outs[c.Rank()] = rankOut{cells: card, stats: estats, err: err}
			return err
		})
		return outs, worldErr
	}

	clean, worldErr := run(t, nil, false)
	if worldErr != nil {
		t.Fatal(worldErr)
	}

	// Policy on: rank 0 corrupts the frames it receives from rank 1 in the
	// first phase; the pipeline completes and counts the quarantine.
	plan := fault.Plan{Seed: 21, Rules: []fault.Rule{fault.FrameCorrupt(0, -1, 1)}}
	quarantined, worldErr := run(t, plan.New(), true)
	if worldErr != nil {
		t.Fatalf("SkipBadFrames pipeline failed: %v", worldErr)
	}
	if quarantined[0].stats.FramesQuarantined == 0 || quarantined[0].stats.BytesQuarantined == 0 {
		t.Errorf("rank 0 quarantined %d frames / %d bytes, want > 0",
			quarantined[0].stats.FramesQuarantined, quarantined[0].stats.BytesQuarantined)
	}
	for r := 1; r < 3; r++ {
		if quarantined[r].stats.FramesQuarantined != 0 {
			t.Errorf("rank %d quarantined %d frames; the fault targets rank 0 only", r, quarantined[r].stats.FramesQuarantined)
		}
	}

	// Policy off: the same corruption fails rank 0, and the abort brings
	// every other rank back with an error too.
	strict, worldErr := run(t, plan.New(), false)
	if worldErr == nil {
		t.Fatal("strict pipeline accepted a corrupted frame")
	}
	for r := range strict {
		if strict[r].err == nil {
			t.Errorf("rank %d returned no error from the strict run", r)
		}
	}

	// Clean retry after the failed attempt: bitwise identical to the first
	// clean run.
	retry, worldErr := run(t, nil, false)
	if worldErr != nil {
		t.Fatalf("clean retry failed: %v", worldErr)
	}
	for r := range clean {
		if len(retry[r].cells) != len(clean[r].cells) {
			t.Fatalf("rank %d retry owns %d cells, want %d", r, len(retry[r].cells), len(clean[r].cells))
		}
		for cell, n := range clean[r].cells {
			if retry[r].cells[cell] != n {
				t.Errorf("rank %d cell %d has %d geometries on retry, want %d", r, cell, retry[r].cells[cell], n)
			}
		}
		if retry[r].stats != clean[r].stats {
			t.Errorf("rank %d retry stats drifted:\n got %+v\nwant %+v", r, retry[r].stats, clean[r].stats)
		}
	}
	settleGoroutines(t, "frame-corruption", before)
}

// TestChaosFrameQuarantineOneFrame: a FrameCorrupt rule that picks a frame
// past the first (Rule.Frame) corrupts that frame's cell id, so the
// receiver quarantines exactly that frame and decodes the rest of the
// partition — on the Exchanger.Add path (WKT) and on the raw ReadExchange
// path (WKB over LengthPrefixed). Rank 0 receives the clean run's bytes
// and one geometry fewer; the other ranks receive exactly the clean run's.
func TestChaosFrameQuarantineOneFrame(t *testing.T) {
	geoms := genGeoms(150, 73)
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	before := runtime.NumGoroutine()
	paths := []struct {
		name    string
		pf      *pfs.File
		parser  func() core.Parser
		framing core.Framing
	}{
		{"add", wktFixture(t, geoms), func() core.Parser { return core.NewWKTParser() }, nil},
		{"raw", wkbFixture(t, geoms), func() core.Parser { return core.NewWKBParser() }, core.LengthPrefixed()},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			run := func(inj *fault.Injector) [3]core.ExchangeStats {
				t.Helper()
				var stats [3]core.ExchangeStats
				err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
					g, err := grid.New(world, 8, 8)
					if err != nil {
						return err
					}
					pt := &core.Partitioner{Grid: g, SkipBadFrames: true}
					if inj != nil {
						pt.FrameFault = inj.FrameFault(c.Rank())
					}
					opt := core.ReadOptions{BlockSize: 1 << 10, Framing: p.framing}
					_, _, st, err := core.ReadExchange(c, mpiio.Open(c, p.pf, mpiio.Hints{}), p.parser(), opt, pt)
					stats[c.Rank()] = st
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				return stats
			}
			clean := run(nil)
			rule := fault.FrameCorrupt(0, -1, 1)
			rule.Frame = 2
			got := run(fault.Plan{Seed: 21, Rules: []fault.Rule{rule}}.New())
			for r := range got {
				want, lost := clean[r], 0
				if r == 0 {
					lost = 1
				}
				if got[r].FramesQuarantined != lost || got[r].GeomsRecv != want.GeomsRecv-lost || got[r].BytesRecv != want.BytesRecv {
					t.Errorf("rank %d: quarantined %d, received %d geometries in %d bytes; want %d, %d in %d",
						r, got[r].FramesQuarantined, got[r].GeomsRecv, got[r].BytesRecv, lost, want.GeomsRecv-lost, want.BytesRecv)
				}
				if (got[r].BytesQuarantined > 0) != (lost > 0) {
					t.Errorf("rank %d: %d bytes quarantined", r, got[r].BytesQuarantined)
				}
			}
		})
	}
	settleGoroutines(t, "frame-quarantine", before)
}

// Wire tag of the exchange's payload round (mpi's Alltoallv tag), restated
// here so chaos rules can target it.
const chaosTagAlltoallv = 1<<20 + 6

// payloadRun streams the WKB chaos fixture through core.ReadExchange on 3
// ranks into an 8×8 grid, window cells per phase (0: one phase), under
// opt's injector, and returns each rank's error and the world's.
func payloadRun(t *testing.T, pf *pfs.File, window int, opt mpi.Options) ([3]error, error) {
	t.Helper()
	var errs [3]error
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	worldErr := mpi.RunOpt(cluster.Local(3), opt, func(c *mpi.Comm) error {
		g, err := grid.New(world, 8, 8)
		if err != nil {
			return err
		}
		readOpt := core.ReadOptions{BlockSize: 1 << 10, Framing: core.LengthPrefixed()}
		pt := &core.Partitioner{Grid: g, WindowCells: window}
		_, _, _, err = core.ReadExchange(c, mpiio.Open(c, pf, mpiio.Hints{}), core.NewWKBParser(), readOpt, pt)
		errs[c.Rank()] = err
		return err
	})
	return errs, worldErr
}

// opLog records one rank's communicator operations, injecting nothing.
type opLog struct {
	rank int
	mu   sync.Mutex
	ops  []mpi.FaultOp
}

func (l *opLog) Decide(op mpi.FaultOp) mpi.FaultDecision {
	if op.Rank == l.rank {
		l.mu.Lock()
		l.ops = append(l.ops, op)
		l.mu.Unlock()
	}
	return mpi.FaultDecision{}
}

// TestChaosPayloadCrash: rank 1 crashes inside the first phase's payload
// round, at the send of its block for rank 0 — after it has received rank
// 0's block, so rank 0 is inside the round and waits there for the block
// that never comes. The world fails with the CrashError at that op; every
// peer errors (later phases need rank 1 too), rank 0 with its cause kept
// through both wraps ("core: payload exchange", "alltoallv"), so errors.Is
// finds ErrAborted; nothing hangs or leaks.
func TestChaosPayloadCrash(t *testing.T) {
	pf := wkbFixture(t, genGeoms(150, 73))
	const window = 7
	before := runtime.NumGoroutine()
	probe := &opLog{rank: 1}
	if _, err := payloadRun(t, pf, window, mpi.Options{Fault: probe}); err != nil {
		t.Fatal(err)
	}
	crashAt, gotRank0 := -1, false
	for _, op := range probe.ops {
		if op.Tag != chaosTagAlltoallv {
			if gotRank0 {
				break // the first payload round is over
			}
			continue
		}
		if op.Peer == 0 && op.Kind == mpi.OpRecv {
			gotRank0 = true
		} else if op.Peer == 0 && gotRank0 {
			crashAt = op.Index
			break
		}
	}
	if crashAt < 0 {
		t.Fatal("rank 1's first payload round does not receive from rank 0 and then send to it")
	}
	plan := fault.Plan{Seed: 17, Rules: []fault.Rule{fault.CrashAt(1, crashAt)}}
	errs, worldErr := payloadRun(t, pf, window, mpi.Options{Fault: plan.New()})
	assertAllFailed(t, "payload-crash", errs[:], worldErr, 1)
	var ce *mpi.CrashError
	if !errors.As(worldErr, &ce) || ce.Rank != 1 || ce.OpIndex != crashAt {
		t.Fatalf("world error = %v, want rank 1's crash at op %d", worldErr, crashAt)
	}
	if !errors.Is(errs[0], mpi.ErrAborted) || !strings.Contains(errs[0].Error(), "core: payload exchange: alltoallv: ") {
		t.Errorf("rank 0 error = %v, want ErrAborted through the payload exchange's wraps", errs[0])
	}
	if !errors.Is(errs[2], mpi.ErrAborted) {
		t.Errorf("rank 2 error = %v, want ErrAborted", errs[2])
	}
	settleGoroutines(t, "payload-crash", before)
}

// TestChaosPayloadCorrupt: a seeded bit flip in rank 1's payload-round
// message to rank 2 fails rank 2's strict decode — the flip chosen once to
// turn a frame's cell id into a cell inside the grid that rank 0 owns
// (decode's ownership check, reached from a plan), and once to truncate a
// WKB count (wkb.ErrTruncated, kept through every wrap). The failure is
// rank 2's alone: its peers finished their last round cleanly.
func TestChaosPayloadCorrupt(t *testing.T) {
	pf := wkbFixture(t, genGeoms(150, 73))
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		seed  int64
		want  string
		cause error
	}{
		{197, "core: rank 2 exchange phase 0 from rank 1: received cell 3 owned by rank 0", nil},
		{31, "core: rank 2 exchange phase 0 from rank 1: exchange payload decode: wkb: truncated input", wkb.ErrTruncated},
	} {
		plan := fault.Plan{Seed: tc.seed, Rules: []fault.Rule{fault.CorruptTag(1, chaosTagAlltoallv)}}
		errs, worldErr := payloadRun(t, pf, 0, mpi.Options{Fault: plan.New()})
		if worldErr == nil || errs[2] == nil || errs[2].Error() != tc.want {
			t.Errorf("seed %d: rank 2 error = %v (world %v), want %q", tc.seed, errs[2], worldErr, tc.want)
		}
		if tc.cause != nil && !errors.Is(errs[2], tc.cause) {
			t.Errorf("seed %d: rank 2 error hides its cause %v: %v", tc.seed, tc.cause, errs[2])
		}
		for _, r := range []int{0, 1} {
			if errs[r] != nil && !errors.Is(errs[r], mpi.ErrAborted) {
				t.Errorf("seed %d: rank %d error = %v", tc.seed, r, errs[r])
			}
		}
	}
	settleGoroutines(t, "payload-corrupt", before)
}
