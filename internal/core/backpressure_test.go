package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/wkt"
)

// probeBatch is the proof's StreamBatch: batch 1 is handed to the sink the
// moment the probeBatch-th geometry is parsed.
const probeBatch = 16

// probeParser wraps the pooled WKTParser and flags any Parse call that
// happens while a sink invocation is in progress — direct evidence of
// parse/drain overlap (or, in the synchronous control run, of its
// absence).
type probeParser struct {
	inSink  *atomic.Int32
	overlap *atomic.Int32
	// entered (overlap mode only; nil in the control run) is closed by the
	// sink once it is inside its first call. The first Parse after batch 1's
	// hand-off waits for it, so the proof is a handshake: without the wait,
	// a sink goroutine scheduled only after the rank has parsed batch 2 and
	// parked in the next hand-off would spin on an overlap nobody can set.
	entered <-chan struct{}
	parsed  *atomic.Int32 // geometries produced so far
	inner   WKTParser
}

func (p probeParser) Parse(rec []byte) (geom.Geometry, error) {
	if p.entered != nil && p.parsed.Load() == probeBatch {
		select {
		case <-p.entered:
		case <-time.After(10 * time.Second): // the sink reports the failure
		}
	}
	if p.inSink.Load() == 1 {
		p.overlap.Store(1)
	}
	g, err := p.inner.Parse(rec)
	if err == nil && g != nil {
		p.parsed.Add(1)
	}
	return g, err
}

// TestBackpressureOverlapProof proves the double-buffered hand-off
// actually overlaps the sink with parsing: the first sink call blocks
// until it observes a record being parsed concurrently — under
// SinkOverlap that observation must arrive (the rank keeps parsing batch
// N+1 while the sink holds batch N); without it, a deliberately slow sink
// must never coexist with a parse, because both share the rank goroutine.
// ParseWorkers stays 0 throughout so the only possible source of overlap
// is the sink hand-off itself.
func TestBackpressureOverlapProof(t *testing.T) {
	pfile := makeWKTFile(t, genRecords(400, 71))

	run := func(overlapMode bool) (observed bool) {
		var inSink, overlap, parsed atomic.Int32
		probe := probeParser{inSink: &inSink, overlap: &overlap, parsed: &parsed}
		entered := make(chan struct{})
		if overlapMode {
			probe.entered = entered
		}
		err := mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
			f := mpiio.Open(c, pfile, mpiio.Hints{})
			delivered := 0
			_, err := ReadStream(c, f, probe, ReadOptions{
				BlockSize: 512, StreamBatch: probeBatch, SinkOverlap: overlapMode,
			}, func(batch []geom.Geometry) error {
				delivered++
				if delivered > 1 {
					return nil
				}
				inSink.Store(1)
				defer inSink.Store(0)
				if !overlapMode {
					// The synchronous control cannot wait for a concurrent
					// parse (there is none); linger long enough that a buggy
					// async delivery would be caught parsing meanwhile.
					time.Sleep(10 * time.Millisecond)
					return nil
				}
				close(entered)
				deadline := time.Now().Add(10 * time.Second)
				for overlap.Load() == 0 {
					if time.Now().After(deadline) {
						return fmt.Errorf("no parse observed while the sink drained batch 1: no overlap")
					}
					time.Sleep(100 * time.Microsecond)
				}
				return nil
			})
			return err
		})
		if err != nil {
			t.Fatalf("SinkOverlap=%v: %v", overlapMode, err)
		}
		return overlap.Load() == 1
	}

	if !run(true) {
		t.Error("SinkOverlap=true: sink and parser never ran concurrently")
	}
	if run(false) {
		t.Error("SinkOverlap=false: sink and parser ran concurrently on the synchronous path")
	}
}

// TestBackpressureDeterminism: SinkOverlap must change nothing observable
// in virtual time — per-rank geometries (order included), batch
// boundaries, ReadStats, and the final clock are bitwise identical to the
// synchronous sink, for serial and pooled parsing alike.
func TestBackpressureDeterminism(t *testing.T) {
	wktFile := makeWKTFile(t, genRecords(500, 72))
	wkbFile := makeWKBFile(t, genGeoms(t, 500, 72))

	for _, workers := range []int{0, 4} {
		for _, fx := range []struct {
			name string
			run  func(overlap bool) ([][]string, []ReadStats, []int, []float64)
		}{
			{"delimited", func(overlap bool) ([][]string, []ReadStats, []int, []float64) {
				return streamPerRank(t, wktFile, 3, func() Parser { return NewWKTParser() }, ReadOptions{
					BlockSize: 1 << 10, MaxGeomSize: 2 << 10, ParseWorkers: workers,
					StreamBatch: 31, SinkOverlap: overlap,
				})
			}},
			{"length-prefixed", func(overlap bool) ([][]string, []ReadStats, []int, []float64) {
				return streamPerRank(t, wkbFile, 3, func() Parser { return NewWKBParser() }, ReadOptions{
					BlockSize: 1 << 10, MaxGeomSize: 2 << 10, Framing: LengthPrefixed(),
					ParseWorkers: workers, StreamBatch: 31, SinkOverlap: overlap,
				})
			}},
		} {
			label := fmt.Sprintf("%s workers=%d", fx.name, workers)
			want, wantStats, wantBatches, wantClocks := fx.run(false)
			got, gotStats, gotBatches, gotClocks := fx.run(true)
			assertRanksIdentical(t, got, want, label)
			for r := range want {
				if gotStats[r] != wantStats[r] {
					t.Errorf("%s: rank %d stats drifted:\n got %+v\nwant %+v", label, r, gotStats[r], wantStats[r])
				}
				if gotBatches[r] != wantBatches[r] {
					t.Errorf("%s: rank %d delivered %d batches, want %d", label, r, gotBatches[r], wantBatches[r])
				}
				if gotClocks[r] != wantClocks[r] {
					t.Errorf("%s: rank %d clock %g, synchronous %g", label, r, gotClocks[r], wantClocks[r])
				}
			}
		}
	}
}

// TestBackpressureSinkErrorAgreement: a sink failure under the
// double-buffered hand-off must still settle the two-flag agreement
// Allreduce collectively — the failing rank returns its own error, every
// other rank returns ErrRemoteSink, nobody hangs — under both SkipErrors
// settings (which silences parse errors, never sink errors) and with
// parse workers in play.
func TestBackpressureSinkErrorAgreement(t *testing.T) {
	pfile := makeWKTFile(t, genRecords(300, 73))
	boom := errors.New("downstream full")
	for _, workers := range []int{0, 4} {
		for _, skip := range []bool{false, true} {
			var mu sync.Mutex
			remote, local := 0, 0
			err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
				f := mpiio.Open(c, pfile, mpiio.Hints{})
				fail := c.Rank() == 1
				delivered := 0
				_, err := ReadStream(c, f, NewWKTParser(), ReadOptions{
					BlockSize: 512, ParseWorkers: workers, SkipErrors: skip,
					StreamBatch: 16, SinkOverlap: true,
				}, func(batch []geom.Geometry) error {
					delivered++
					if fail && delivered == 2 {
						return boom
					}
					return nil
				})
				switch {
				case err == nil:
					return fmt.Errorf("rank %d: sink failure not surfaced", c.Rank())
				case fail && errors.Is(err, boom):
					mu.Lock()
					local++
					mu.Unlock()
				case !fail && errors.Is(err, ErrRemoteSink):
					mu.Lock()
					remote++
					mu.Unlock()
				default:
					return fmt.Errorf("rank %d: wrong error %v", c.Rank(), err)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d skip=%v: %v", workers, skip, err)
			}
			if local != 1 || remote != 2 {
				t.Fatalf("workers=%d skip=%v: local=%d remote=%d", workers, skip, local, remote)
			}
		}
	}
}

// TestBackpressureBatchIsolation: the batch slice an overlapped sink
// receives must stay intact for the whole sink call even though the rank
// goroutine is concurrently accumulating the next batch — the double
// buffer's reason to exist. The sink holds each batch briefly and
// re-verifies its contents before returning.
func TestBackpressureBatchIsolation(t *testing.T) {
	pfile := makeWKTFile(t, genRecords(400, 74))
	err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pfile, mpiio.Hints{})
		_, err := ReadStream(c, f, NewWKTParser(), ReadOptions{
			BlockSize: 512, StreamBatch: 16, SinkOverlap: true, ParseWorkers: 2,
		}, func(batch []geom.Geometry) error {
			snapshot := make([]string, len(batch))
			for i, g := range batch {
				snapshot[i] = wkt.Format(g)
			}
			time.Sleep(200 * time.Microsecond) // let the reader race ahead
			for i, g := range batch {
				if got := wkt.Format(g); got != snapshot[i] {
					return fmt.Errorf("batch mutated under the sink at index %d: %s != %s", i, got, snapshot[i])
				}
			}
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
