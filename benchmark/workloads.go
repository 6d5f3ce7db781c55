package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/serve"
	"repro/internal/spatial"
)

// ranks is the fixed world size of every measured op. The host has two
// hardware threads and the process runs at GOMAXPROCS=1, so the two rank
// goroutines time-share one P: wall time measures total work.
const ranks = 2

// world is the generator's drawing bounds — the caller-known envelope the
// one-pass pipelines (ReadExchange, ServeQuery) are given up front.
var world = geom.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}

// counts is what one op reports about its own output. Every field is a
// pure function of the inputs, so every op of a run must reproduce the
// pinned value exactly; a mismatch is a failed op.
type counts struct {
	records   int     // geometries parsed, summed over ranks
	bytesRead int64   // file bytes read, summed over ranks
	geomsRecv int     // geometries landed in owned cells (join: R geometries indexed), summed over ranks
	pairs     int64   // join result pairs
	virtual   float64 // virtual seconds at the end of the op, max over ranks
}

// sameOutput compares the fields that do not depend on the world size —
// what the 1-rank baseline pins.
func (c counts) sameOutput(o counts) bool {
	return c.records == o.records && c.bytesRead == o.bytesRead &&
		c.geomsRecv == o.geomsRecv && c.pairs == o.pairs
}

// tally folds per-rank contributions into one counts under a lock.
type tally struct {
	mu sync.Mutex
	c  counts
}

func (t *tally) add(records int, bytesRead int64, geomsRecv int, pairs int64, now float64) {
	t.mu.Lock()
	t.c.records += records
	t.c.bytesRead += bytesRead
	t.c.geomsRecv += geomsRecv
	t.c.pairs += pairs
	t.c.virtual = math.Max(t.c.virtual, now)
	t.mu.Unlock()
}

// layer is one generated dataset resident in the simulated filesystem.
type layer struct {
	file  *pfs.File
	enc   datagen.Encoding
	scale float64
	stats datagen.Stats
}

// genLayer generates spec at 1/scale into a fresh filesystem. The run's
// seed is added to the preset's, so each seed is a different file with
// the same statistics (the cluster centres come from datagen's fixed
// world sequence, so layers still co-locate).
func genLayer(spec datagen.Spec, scale float64, enc datagen.Encoding, seed int64) (*layer, error) {
	spec.Seed += seed
	fs, err := pfs.New(pfs.RogerGPFS())
	if err != nil {
		return nil, err
	}
	f, stats, err := datagen.GenerateFileEncoded(spec, scale, enc, fs, spec.Name+enc.Ext(), 0, 0)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	return &layer{file: f, enc: enc, scale: scale, stats: stats}, nil
}

// readOptions is the read configuration every workload shares: default
// strategy (message) and level (0), 256 MB virtual blocks as the repo's
// own ingest rows use, and the framing that matches the encoding.
func (l *layer) readOptions() core.ReadOptions {
	opt := core.ReadOptions{BlockSize: max(int64(256e6/l.scale), 1)}
	if l.enc == datagen.EncodingWKB {
		opt.Framing = core.LengthPrefixed()
	}
	return opt
}

func (l *layer) parser() core.Parser {
	if l.enc == datagen.EncodingWKB {
		return core.NewWKBParser()
	}
	return core.NewWKTParser()
}

// batch is one of the three batch workloads: build generates its input
// files, op runs the measured pipeline once over a world of n ranks.
type batch struct {
	name  string
	build func(seed int64, shrink float64) ([]*layer, error)
	op    func(in []*layer, n int) (counts, error)
}

// inputBytes is the numerator of throughput_mb_s: the file bytes one op
// consumes.
func inputBytes(in []*layer) int64 {
	var n int64
	for _, l := range in {
		n += l.file.Size()
	}
	return n
}

var batches = []batch{
	{
		// Text parse dominates: exchange, index and refine do nothing.
		name: "ingest_wkt",
		build: func(seed int64, shrink float64) ([]*layer, error) {
			l, err := genLayer(datagen.Lakes(), ingestLakesScale*shrink, datagen.EncodingWKT, seed)
			return []*layer{l}, err
		},
		op: func(in []*layer, n int) (counts, error) {
			var t tally
			err := mpi.Run(cluster.Local(n), func(c *mpi.Comm) error {
				mf := mpiio.Open(c, in[0].file, mpiio.Hints{})
				_, st, err := core.ReadPartition(c, mf, in[0].parser(), in[0].readOptions())
				if err != nil {
					return err
				}
				t.add(st.Records, st.BytesRead, 0, 0, c.Now())
				return nil
			})
			return t.c, err
		},
	},
	{
		// Parse is cheap, so frame encode / Alltoallv / decode dominate;
		// the wkt package is never entered.
		name: "partition_wkb",
		build: func(seed int64, shrink float64) ([]*layer, error) {
			l, err := genLayer(datagen.Lakes(), ingestLakesScale*shrink, datagen.EncodingWKB, seed)
			return []*layer{l}, err
		},
		op: func(in []*layer, n int) (counts, error) {
			var t tally
			err := mpi.Run(cluster.Local(n), func(c *mpi.Comm) error {
				mf := mpiio.Open(c, in[0].file, mpiio.Hints{})
				g, err := grid.New(world, 16, 16)
				if err != nil {
					return err
				}
				pt := &core.Partitioner{Grid: g, DirectGrid: true}
				_, rst, est, err := core.ReadExchange(c, mf, in[0].parser(), in[0].readOptions(), pt)
				if err != nil {
					return err
				}
				t.add(rst.Records, rst.BytesRead, est.GeomsRecv, 0, c.Now())
				return nil
			})
			return t.c, err
		},
	},
	{
		// The paper's application. A nil envelope selects the two-pass path:
		// materialized Partitioner.Exchange and bulk polygon-polygon refine.
		name: "join_polys",
		build: func(seed int64, shrink float64) ([]*layer, error) {
			r, err := genLayer(datagen.Lakes(), joinLakesScale*shrink, datagen.EncodingWKT, seed)
			if err != nil {
				return nil, err
			}
			s, err := genLayer(datagen.Cemetery(), joinCemeteryScale*shrink, datagen.EncodingWKT, seed)
			return []*layer{r, s}, err
		},
		op: func(in []*layer, n int) (counts, error) {
			var t tally
			err := mpi.Run(cluster.Local(n), func(c *mpi.Comm) error {
				mfR := mpiio.Open(c, in[0].file, mpiio.Hints{})
				mfS := mpiio.Open(c, in[1].file, mpiio.Hints{})
				bd, err := spatial.JoinFiles(c, mfR, mfS, core.NewWKTParser(), in[0].readOptions(), spatial.JoinOptions{})
				if err != nil {
					return err
				}
				if c.Rank() == 0 { // the breakdown is already aggregated
					t.add(0, 0, int(bd.Indexed), bd.Pairs, bd.Total)
				}
				return nil
			})
			return t.c, err
		},
	},
}

// Dataset scale divisors, sized so that at least thirty ops of every
// batch workload fit the run's timed pass (README "Sizing").
const (
	ingestLakesScale  = 256 // ~35 MB of WKT or WKB
	joinLakesScale    = 512
	joinCemeteryScale = 32
)

// Serve workload shape.
const (
	serveLakesScale = 256
	serveGridCells  = 256
	// cycleSide squared is the number of distinct rectangles of one cycle.
	// 64x64 rather than the issue's 1024: with 1024 the pairs a cycle
	// returns moved by 12 % between query seeds, with 4096 by 3 %.
	cycleSide = 64
	// One closed-loop client. With two clients on the one P, a request
	// preempted at the scheduler's 10 ms slice waits out the other client's
	// slice: p99.9 read 20.17 ms on every seed and p99 sat on the edge of
	// that cliff (README "One client").
	serveClients = 1
	// concurrentClients drives the traced pass's coalescing probe.
	concurrentClients = 2
)

// standing is one resident service: the world goroutines parked behind
// svc until down() closes it.
type standing struct {
	svc  *serve.Service
	done chan error
}

// standUp takes the lakes file to a resident index: ReadPartition, then
// spatial.ServeQuery (partition, exchange, per-cell R-tree build), and
// returns once every rank has registered.
func standUp(l *layer, n int) (*standing, error) {
	s := &standing{svc: serve.NewService(n), done: make(chan error, 1)}
	go func() {
		err := mpi.Run(cluster.Local(n), func(c *mpi.Comm) error {
			mf := mpiio.Open(c, l.file, mpiio.Hints{})
			local, _, err := core.ReadPartition(c, mf, l.parser(), l.readOptions())
			if err != nil {
				return err
			}
			_, err = spatial.ServeQuery(c, local, s.svc, spatial.JoinOptions{GridCells: serveGridCells, Envelope: &world})
			return err
		})
		s.svc.Close() // release anyone parked on Ready if the world failed
		s.done <- err
	}()
	select {
	case <-s.svc.Ready():
		return s, nil
	case err := <-s.done:
		if err == nil {
			err = fmt.Errorf("service closed before it was ready")
		}
		return nil, fmt.Errorf("stand up: %w", err)
	}
}

// down closes the service and waits for the world to drain and exit.
func (s *standing) down() error {
	s.svc.Close()
	return <-s.done
}

// queryCycle draws the seeded request stream: cycleSide^2 rectangles with
// 4-16 degree sides. Both position and size are stratified — one centre
// per cell of a cycleSide x cycleSide lattice over the world, jittered
// inside it, and widths and heights that are each a permutation of an even
// ladder from 4 to 16 degrees — so every seed covers dense clusters and
// empty ocean in the same proportion and a cycle's work varies little
// from seed to seed.
func queryCycle(seed int64) []geom.Envelope {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	const n = cycleSide * cycleSide
	ws, hs := r.Perm(n), r.Perm(n)
	out := make([]geom.Envelope, 0, n)
	for i := 0; i < n; i++ {
		cx := world.MinX + (float64(i%cycleSide)+r.Float64())*world.Width()/cycleSide
		cy := world.MinY + (float64(i/cycleSide)+r.Float64())*world.Height()/cycleSide
		w := 4 + 12*(float64(ws[i])+0.5)/n
		h := 4 + 12*(float64(hs[i])+0.5)/n
		out = append(out, geom.Envelope{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2})
	}
	// Shuffle so that neighbouring requests are not spatial neighbours.
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
