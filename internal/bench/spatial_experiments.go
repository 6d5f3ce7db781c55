package bench

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/spatial"
)

// rogerCluster builds a ROGER-style cluster for the given process count
// (20 ranks per node, partially filled last node allowed) at the given
// scale.
func rogerCluster(procs int, scale float64) *cluster.Config {
	nodes := (procs + 19) / 20
	cc := cluster.Roger(nodes)
	cc.RanksPerNode = (procs + nodes - 1) / nodes
	cc.ByteScale = scale
	return cc
}

// ioParseTime reads the whole file with ReadPartition (WKT parsing
// included) and returns the slowest rank's total virtual time — the
// quantity Figure 14 plots.
func ioParseTime(cc *cluster.Config, f *pfs.File, level core.AccessLevel) (float64, error) {
	var tmax float64
	var once sync.Once
	err := mpi.Run(cc, func(c *mpi.Comm) error {
		mf := mpiio.Open(c, f, mpiio.Hints{})
		_, _, err := core.ReadPartition(c, mf, core.NewWKTParser(), core.ReadOptions{
			Level: level,
			// 256 MB virtual blocks: iterative reads under the ROMIO limit.
			BlockSize: realBytes(256e6, f.Scale()),
		})
		if err != nil {
			return err
		}
		tm, err := maxNow(c, c.Now())
		if err != nil {
			return err
		}
		once.Do(func() { tmax = tm })
		return nil
	})
	return tmax, err
}

// Fig14 measures I/O+parsing time for All Nodes (96 GB of points) and All
// Objects (92 GB of polygons) on GPFS with collective contiguous reads.
// The files are nearly the same size but All Objects costs more: polygon
// parsing is more expensive than point parsing (§5.1.2, Figure 14). The
// paper sees scaling up to 80 processes.
func Fig14(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "I/O+parsing, All Nodes (96 GB) vs All Objects (92 GB), GPFS, Level 1",
		Header: []string{"procs", "All Nodes (s)", "All Objects (s)"},
		Notes:  "paper: All Objects slower despite similar size — polygons parse slower than points; scales to 80 procs",
	}
	procsSweep := []int{10, 20, 40, 60, 80}
	if cfg.Quick {
		procsSweep = []int{4, 8}
	}
	specs := []datagen.Spec{datagen.AllNodes(), datagen.AllObjects()}
	for _, procs := range procsSweep {
		row := []string{fmt.Sprintf("%d", procs)}
		for _, spec := range specs {
			scale := cfg.scale(spec.DefaultScale)
			f, err := dataset(spec, scale, pfs.RogerGPFS(), 0, 0)
			if err != nil {
				return nil, err
			}
			tm, err := ioParseTime(rogerCluster(procs, scale), f, core.Level1)
			if err != nil {
				return nil, fmt.Errorf("fig14 %s procs=%d: %v", spec.Name, procs, err)
			}
			row = append(row, seconds(tm))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// recordSpans scans a WKT file once and returns each record's byte offset
// and length (delimiter included) — the vertex-count and displacement
// preprocessing the paper requires before non-contiguous polygon access
// (§4.1).
func recordSpans(f *pfs.File) (offs, lens []int, err error) {
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, nil, err
	}
	start := 0
	for i, b := range buf {
		if b == '\n' {
			offs = append(offs, start)
			lens = append(lens, i-start+1)
			start = i + 1
		}
	}
	if start < len(buf) { // unterminated final record
		offs = append(offs, start)
		lens = append(lens, len(buf)-start)
	}
	return offs, lens, nil
}

// timedIndexedPolyRead reads a WKT polygon file through a Level 3
// non-contiguous file view: blocks of blockPolys consecutive records are
// assigned round-robin over ranks and described with MPI_Type_indexed built
// from the preprocessed displacement arrays (§4.1, Figure 16).
func timedIndexedPolyRead(cc *cluster.Config, f *pfs.File, offs, lens []int, blockPolys int) (float64, error) {
	var tmax float64
	var once sync.Once
	err := mpi.Run(cc, func(c *mpi.Comm) error {
		mf := mpiio.Open(c, f, mpiio.Hints{})
		n := c.Size()
		blocksTotal := (len(offs) + blockPolys - 1) / blockPolys
		var blockLens, blockDispls []int
		total := 0
		for b := c.Rank(); b < blocksTotal; b += n {
			lo := b * blockPolys
			hi := min(lo+blockPolys, len(offs))
			byteLen := offs[hi-1] + lens[hi-1] - offs[lo]
			blockDispls = append(blockDispls, offs[lo])
			blockLens = append(blockLens, byteLen)
			total += byteLen
		}
		if len(blockLens) == 0 {
			if _, err := mf.ReadViewAll(nil, 0); err != nil && err != io.EOF {
				return err
			}
		} else {
			ft, err := mpi.TypeIndexed(blockLens, blockDispls, mpi.Byte)
			if err != nil {
				return err
			}
			if err := mf.SetView(0, mpi.Byte, ft); err != nil {
				return err
			}
			buf := make([]byte, total)
			if _, err := mf.ReadViewAll(buf, 0); err != nil && err != io.EOF {
				return err
			}
		}
		tm, err := maxNow(c, c.Now())
		if err != nil {
			return err
		}
		once.Do(func() { tmax = tm })
		return nil
	})
	return tmax, err
}

// Fig16 compares contiguous and non-contiguous access for variable-length
// polygon data, sweeping the block size in polygons. The paper finds
// contiguous robustly faster while non-contiguous performance is very
// sensitive to block size and process count (Figure 16).
func Fig16(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "Non-contiguous polygon I/O with different block sizes (GPFS)",
		Header: []string{"dataset", "procs", "mode", "block (polys)", "time (s)"},
		Notes:  "paper: contiguous wins; NC is sensitive to block size because polygon lengths vary widely",
	}
	procsSweep := []int{20, 40}
	blockSweep := []int{32, 128, 512}
	specs := []datagen.Spec{datagen.Cemetery(), datagen.Lakes()}
	if cfg.Quick {
		procsSweep = []int{4}
		blockSweep = []int{64}
		specs = specs[:1]
	}
	for _, spec := range specs {
		// A quarter of the default scale keeps enough records per block for
		// a sane round-robin distribution at these block sizes.
		scale := cfg.scale(spec.DefaultScale / 4)
		f, err := dataset(spec, scale, pfs.RogerGPFS(), 0, 0)
		if err != nil {
			return nil, err
		}
		offs, lens, err := recordSpans(f)
		if err != nil {
			return nil, fmt.Errorf("fig16 %s preprocess: %v", spec.Name, err)
		}
		for _, procs := range procsSweep {
			cc := rogerCluster(procs, scale)
			tm, err := timedEqualRead(cc, f, 1, true)
			if err != nil {
				return nil, fmt.Errorf("fig16 %s contig procs=%d: %v", spec.Name, procs, err)
			}
			t.Rows = append(t.Rows, []string{
				spec.Name, fmt.Sprintf("%d", procs), "contiguous", "-", seconds(tm),
			})
			for _, block := range blockSweep {
				tm, err := timedIndexedPolyRead(rogerCluster(procs, scale), f, offs, lens, block)
				if err != nil {
					return nil, fmt.Errorf("fig16 %s nc procs=%d block=%d: %v", spec.Name, procs, block, err)
				}
				t.Rows = append(t.Rows, []string{
					spec.Name, fmt.Sprintf("%d", procs), "non-contiguous", fmt.Sprintf("%d", block), seconds(tm),
				})
			}
		}
	}
	return t, nil
}

// timedJoin runs the end-to-end distributed spatial join (read both files,
// grid-partition, exchange, index, refine) and returns the aggregated
// breakdown the paper plots in Figures 17-19.
func timedJoin(procs int, specR, specS datagen.Spec, scale float64, cells, window int) (spatial.Breakdown, error) {
	fR, err := dataset(specR, scale, pfs.RogerGPFS(), 0, 0)
	if err != nil {
		return spatial.Breakdown{}, err
	}
	fS, err := dataset(specS, scale, pfs.RogerGPFS(), 0, 0)
	if err != nil {
		return spatial.Breakdown{}, err
	}
	cc := rogerCluster(procs, scale)
	var bd spatial.Breakdown
	var once sync.Once
	err = mpi.Run(cc, func(c *mpi.Comm) error {
		mfR := mpiio.Open(c, fR, mpiio.Hints{})
		mfS := mpiio.Open(c, fS, mpiio.Hints{})
		// Independent contiguous reads (the paper's own conclusion: Level 0
		// beats collectives for this pattern, §5.1.1) with fine-grained
		// blocks — the paper notes spatial join wants fine decomposition.
		res, err := spatial.JoinFiles(c, mfR, mfS, core.NewWKTParser(),
			core.ReadOptions{Level: core.Level0, BlockSize: realBytes(16e6, scale)},
			spatial.JoinOptions{GridCells: cells, WindowCells: window})
		if err != nil {
			return err
		}
		once.Do(func() { bd = res })
		return nil
	})
	return bd, err
}

// joinRow renders one breakdown row: the per-phase maxima across ranks,
// matching the paper's reporting convention for Figures 17-19 —
// partitioning is populating the grid cells with the already-read
// geometries, file I/O is not part of these figures (it is §5.1's
// subject), and the total is less than the sum of phases because each
// phase reports its cross-rank maximum.
func joinRow(label string, bd spatial.Breakdown) []string {
	return []string{
		label,
		seconds(bd.Partition),
		seconds(bd.Comm),
		seconds(bd.Index + bd.Refine),
		seconds(bd.Total - bd.Read),
	}
}

// Fig17 sweeps the number of grid cells for the Lakes ⋈ Cemetery join at a
// fixed 80 processes: more cells mean finer tasks, better balance, and a
// falling total (Figure 17).
func Fig17(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "Spatial join breakdown vs grid cells (Lakes ⋈ Cemetery, 80 procs)",
		Header: []string{"cells", "partition (s)", "comm (s)", "join (s)", "total (s)"},
		Notes:  "paper: total decreases as grid cells increase; total < sum (per-phase maxima)",
	}
	procs := 80
	cellSweep := []int{256, 1024, 4096, 16384}
	if cfg.Quick {
		procs = 4
		cellSweep = []int{64, 256}
	}
	specR, specS := datagen.Lakes(), datagen.Cemetery()
	// A quarter of the default scale: candidate-pair counts shrink with the
	// square of the scale factor, so denser real data keeps them stable.
	scale := cfg.scale(specR.DefaultScale / 4)
	for _, cells := range cellSweep {
		bd, err := timedJoin(procs, specR, specS, scale, cells, 0)
		if err != nil {
			return nil, fmt.Errorf("fig17 cells=%d: %v", cells, err)
		}
		t.Rows = append(t.Rows, joinRow(fmt.Sprintf("%d", cells), bd))
	}
	return t, nil
}

// Fig18 sweeps process counts for the Lakes ⋈ Cemetery join. The join
// (index+refine) phase dominates and shrinks with more processes
// (Figure 18).
func Fig18(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig18",
		Title:  "Spatial join breakdown vs processes (Lakes ⋈ Cemetery)",
		Header: []string{"procs", "partition (s)", "comm (s)", "join (s)", "total (s)"},
		Notes:  "paper: join time dominates and falls with process count",
	}
	procsSweep := []int{20, 40, 80, 160}
	cells := 16384
	if cfg.Quick {
		procsSweep = []int{2, 4}
		cells = 256
	}
	specR, specS := datagen.Lakes(), datagen.Cemetery()
	scale := cfg.scale(specR.DefaultScale / 4)
	for _, procs := range procsSweep {
		bd, err := timedJoin(procs, specR, specS, scale, cells, 0)
		if err != nil {
			return nil, fmt.Errorf("fig18 procs=%d: %v", procs, err)
		}
		t.Rows = append(t.Rows, joinRow(fmt.Sprintf("%d", procs), bd))
	}
	return t, nil
}

// Fig19 sweeps process counts for the Roads ⋈ Cemetery join, where the
// larger R side makes communication the dominant phase (Figure 19).
func Fig19(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig19",
		Title:  "Spatial join breakdown vs processes (Roads ⋈ Cemetery)",
		Header: []string{"procs", "partition (s)", "comm (s)", "join (s)", "total (s)"},
		Notes:  "paper: communication cost dominates for the bigger Roads dataset",
	}
	procsSweep := []int{20, 40, 80, 160}
	cells := 16384
	if cfg.Quick {
		procsSweep = []int{2, 4}
		cells = 256
	}
	specR, specS := datagen.Roads(), datagen.Cemetery()
	scale := cfg.scale(specR.DefaultScale / 4)
	for _, procs := range procsSweep {
		bd, err := timedJoin(procs, specR, specS, scale, cells, 0)
		if err != nil {
			return nil, fmt.Errorf("fig19 procs=%d: %v", procs, err)
		}
		t.Rows = append(t.Rows, joinRow(fmt.Sprintf("%d", procs), bd))
	}
	return t, nil
}

// Fig20 measures the in-memory parallel indexing of Road Network (137 GB,
// 717 M line records) over 2048 grid cells: read, partition, exchange and
// per-cell R-tree build. The paper's headline is 90 s at 320 processes
// (Figure 20).
func Fig20(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig20",
		Title:  "Indexing breakdown, Road Network (137 GB), 2048 grid cells",
		Header: []string{"procs", "read (s)", "partition (s)", "comm (s)", "index (s)", "total (s)"},
		Notes:  "paper: all phases improve with processes; 717M edges indexed in ~90 s at 320 procs",
	}
	procsSweep := []int{80, 160, 320}
	cells := 2048
	if cfg.Quick {
		procsSweep = []int{4, 8}
		cells = 256
	}
	spec := datagen.RoadNetwork()
	scale := cfg.scale(spec.DefaultScale)
	f, err := dataset(spec, scale, pfs.RogerGPFS(), 0, 0)
	if err != nil {
		return nil, err
	}
	for _, procs := range procsSweep {
		cc := rogerCluster(procs, scale)
		var bd spatial.Breakdown
		var once sync.Once
		err := mpi.Run(cc, func(c *mpi.Comm) error {
			mf := mpiio.Open(c, f, mpiio.Hints{})
			_, _, my, err := spatial.BuildIndexFiles(c, mf, core.NewWKTParser(), core.ReadOptions{
				Level: core.Level0, BlockSize: realBytes(256e6, scale),
			}, spatial.IndexOptions{GridCells: cells})
			if err != nil {
				return err
			}
			agg, err := my.Aggregate(c)
			if err != nil {
				return err
			}
			once.Do(func() { bd = agg })
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("fig20 procs=%d: %v", procs, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", procs),
			seconds(bd.Read), seconds(bd.Partition), seconds(bd.Comm),
			seconds(bd.Index), seconds(bd.Total),
		})
	}
	return t, nil
}
