package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/simtime"
)

// Sampling-pass defaults. The prefix is deliberately small — the pass
// exists to be cheap relative to the ingest it tunes.
const (
	// defaultSampleStride parses every Nth record of the sampled prefix.
	defaultSampleStride = 16
	// defaultHistogramSide is the sample histogram's bin count per axis
	// (power of two; 64 supports quadtree leaves down to depth 6).
	defaultHistogramSide = 64
	// minLeafSampleRecords expresses the costmodel-derived split floor: a
	// quadrant whose expected load falls below the load of this many
	// average sampled records is never split further — the exchange and
	// index work it represents is too small for finer placement to pay.
	minLeafSampleRecords = 64
)

// PartitionOptions configures the skew-aware sampling pass of
// SamplePartition: how much of the file prefix to sample, how sparsely to
// parse it, and how finely to analyze and split the result. Every field is
// configuration, identical on all ranks.
type PartitionOptions struct {
	// Envelope, when non-nil, is the known world envelope (the generator's
	// drawing bounds, a dataset's metadata). Nil derives it from the
	// sample with the MPI_UNION reduction of §4.2.2 — cheaper than a full
	// pre-read, at the price of clamping any unsampled outliers to the
	// border cells.
	Envelope *geom.Envelope
	// SampleBytes bounds the file prefix (real stored bytes) the pass
	// reads. Zero picks 1/16 of the file clamped to [64 KiB, 4 MiB].
	SampleBytes int64
	// SampleStride parses every Nth record of the prefix; the skipped
	// records are hopped, not parsed. Zero means 16.
	SampleStride int
	// HistogramSide is the sample histogram's bin count per axis (a power
	// of two). Zero means 64.
	HistogramSide int
	// TargetCellsPerRank and MaxDepth pass through to
	// grid.AdaptiveOptions.
	TargetCellsPerRank int
	MaxDepth           int
}

// SamplePartition is the sample → analyze → tune pass that builds the
// skew-aware partition before ingest: every rank stride-samples record
// envelopes from a prefix of the file (one collective read), the sampled
// loads — priced by costmodel.PartitionLoadCost — are Allreduced into a
// rank-identical histogram, and grid.BuildAdaptive splits the hot quadrants
// and bin-packs the Hilbert-ordered leaves into a cell-to-rank placement.
// The returned partition drops into Partitioner.Grid (and the spatial
// workloads' Partition option) in place of the uniform grid.
//
// The result is a deterministic, rank-uniform function of the file and the
// options: every collective below is reached by all ranks unconditionally,
// and the analysis runs on the reduced (identical) sample. All ranks must
// call it collectively.
func SamplePartition(c *mpi.Comm, f *mpiio.File, p Parser, opt ReadOptions, popt PartitionOptions) (*grid.Adaptive, error) {
	fr := opt.framing()
	stride := popt.SampleStride
	if stride <= 0 {
		stride = defaultSampleStride
	}
	side := popt.HistogramSide
	if side <= 0 {
		side = defaultHistogramSide
	}
	size := c.Size()
	rank := c.Rank()
	scale := c.Config().Scale()
	if scale <= 0 {
		scale = 1
	}

	// Size the prefix: small by default, never past EOF, and with each
	// rank's chunk bounded well below the single-call ROMIO limit in
	// virtual terms. All inputs are rank-identical, so every rank sizes
	// the same prefix.
	fileSize := f.Size()
	prefix := popt.SampleBytes
	if prefix <= 0 {
		prefix = fileSize / 16
		if prefix < 64<<10 {
			prefix = 64 << 10
		}
		if prefix > 4<<20 {
			prefix = 4 << 20
		}
	}
	if prefix > fileSize {
		prefix = fileSize
	}
	if maxChunk := int64(float64(mpiio.ROMIOLimit/4) / scale); maxChunk > 0 && prefix > maxChunk*int64(size) {
		prefix = maxChunk * int64(size)
	}

	// The prefix read: with a self-synchronizing framing every rank scans
	// its own chunk (one leading byte detects whether the chunk starts
	// mid-record, as the overlap strategy does); a non-self-synchronizing
	// framing is only hoppable from offset zero, so rank 0 scans the whole
	// prefix alone. Either way ReadAtSync is called by every rank —
	// inactive ranks pass an empty buffer, as the Level-0 read loops do.
	var buf []byte
	var lo int64
	if fr.selfSync() {
		chunk := (prefix + int64(size) - 1) / int64(size)
		lo = int64(rank) * chunk
		hi := lo + chunk
		if hi > prefix {
			hi = prefix
		}
		if lo > 0 {
			lo-- // one leading byte: does a record end right before the chunk?
		}
		if hi > lo {
			buf = make([]byte, hi-lo)
		} else {
			lo = 0
		}
	} else if rank == 0 {
		buf = make([]byte, prefix)
	}
	n, err := f.ReadAtSync(buf, lo)
	if errors.Is(err, io.EOF) {
		err = nil // a short prefix read is fine; the sample is best-effort
	}
	if err != nil {
		return nil, fmt.Errorf("core: partition sample read: %w", err)
	}
	buf = buf[:n]

	// Resynchronize: a chunk that does not begin the file starts at the
	// first record boundary after its leading byte.
	start := 0
	if lo > 0 {
		if b := fr.firstBoundary(buf); b >= 0 {
			start = b
		} else {
			start = len(buf)
		}
	}

	// Stride-sample the chunk: hop every record, parse every Nth. Records
	// that fail to parse are skipped — the real read pass applies the
	// configured error policy; the sample only estimates the load field.
	type sampleRec struct {
		env geom.Envelope
		w   float64
	}
	var samples []sampleRec
	localEnv := geom.EmptyEnvelope()
	var parseCost float64
	recIdx := 0
	for pos := start; pos < len(buf); {
		payload, framed, ok := fr.next(buf[pos:])
		if !ok {
			break // trailing partial record: another rank's, or past the prefix
		}
		if recIdx%stride == 0 && !fr.blank(payload) {
			if g, perr := p.Parse(payload); perr == nil && g != nil {
				if env := g.Envelope(); !env.IsEmpty() {
					parseCost += costmodel.ParseCost(g.GeomType(), len(payload)) * scale
					samples = append(samples, sampleRec{
						env: env,
						w:   float64(stride) * costmodel.PartitionLoadCost(g.GeomType(), framed),
					})
					localEnv = localEnv.Union(env)
				}
			}
		}
		recIdx++
		pos += framed
	}
	if parseCost > 0 {
		c.Charge(simtime.Parse, parseCost)
	}

	// Fix the world envelope. The reduction runs unconditionally — with a
	// caller-supplied envelope every rank contributes the same rectangle
	// and the union is that rectangle — so no rank can skip the collective.
	local := localEnv
	if popt.Envelope != nil {
		local = *popt.Envelope
	}
	world, err := GlobalEnvelope(c, local)
	if err != nil {
		return nil, fmt.Errorf("core: partition sample envelope: %w", err)
	}
	if world.IsEmpty() {
		return nil, fmt.Errorf("core: partition sample found no geometries in the first %d bytes; pass PartitionOptions.Envelope or grow SampleBytes", prefix)
	}

	// Analyze: bin the sampled loads, then element-wise sum the fields
	// across ranks (plus the global sampled-record estimate in the last
	// slot) so every rank sees the identical global sample.
	hist, err := grid.NewHistogram(world, side)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		hist.Add(s.env, s.w)
	}
	w := hist.Weights()
	payload := make([]byte, (len(w)+1)*8)
	for i, v := range w {
		binary.LittleEndian.PutUint64(payload[i*8:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint64(payload[len(w)*8:], math.Float64bits(float64(len(samples)*stride)))
	red, err := c.Allreduce(payload, len(w)+1, mpi.Float64, mpi.OpSumFloat64)
	if err != nil {
		return nil, fmt.Errorf("core: partition sample reduction: %w", err)
	}
	var total float64
	for i := range w {
		w[i] = f64field(red, i)
		total += w[i]
	}
	records := f64field(red, len(w))

	// Tune: split while a quadrant's expected load beats the
	// costmodel-derived floor, then Hilbert-pack the leaves.
	var minLoad float64
	if records > 0 {
		minLoad = total / records * minLeafSampleRecords
	}
	return grid.BuildAdaptive(hist, grid.AdaptiveOptions{
		Ranks:              size,
		TargetCellsPerRank: popt.TargetCellsPerRank,
		MinLeafLoad:        minLoad,
		MaxDepth:           popt.MaxDepth,
	})
}
