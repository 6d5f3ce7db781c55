package bench

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// Table3 regenerates the datasets table: for each of the six OSM-derived
// datasets, the scaled synthetic equivalent is generated and read+parsed
// by a single process; the modeled sequential time lands next to the
// paper's measured column.
func Table3(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "Real-world datasets and sequential parsing time",
		Header: []string{"#", "Dataset", "Shape", "FileSize", "Count", "I/O+parse (s)", "paper (s)"},
		Notes:  "counts and sizes are full-scale equivalents of the scaled synthetic datasets",
	}
	paperSecs := []string{"2.1", "328", "786", "4728", "2873", "3782"}
	specs := datagen.AllDatasets()
	if cfg.Quick {
		specs = specs[:2]
	}
	for i, spec := range specs {
		scale := cfg.scale(spec.DefaultScale)
		f, err := dataset(spec, scale, pfs.RogerGPFS(), 0, 0)
		if err != nil {
			return nil, err
		}
		var secsSeq float64
		var records int64
		err = mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
			mf := mpiio.Open(c, f, mpiio.Hints{})
			_, stats, err := core.ReadPartition(c, mf, core.NewWKTParser(), core.ReadOptions{
				// Sequential pass in 1 GB (virtual) slices: ROMIO caps any
				// single operation at 2 GB.
				BlockSize: realBytes(1e9, scale),
			})
			if err != nil {
				return err
			}
			secsSeq = stats.Ledger.Sum()
			records = int64(stats.Records)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %v", spec.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			spec.Name,
			shapeName(spec),
			sizeName(float64(f.VirtualSize())),
			countName(float64(records) * scale),
			seconds(secsSeq),
			paperSecs[i],
		})
	}
	return t, nil
}

func shapeName(spec datagen.Spec) string {
	switch spec.Name {
	case "roadnetwork":
		return "Line"
	case "allnodes":
		return "Point"
	default:
		return "Polygon"
	}
}

func sizeName(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.0f GB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.0f MB", b/1e6)
	default:
		return fmt.Sprintf("%.0f KB", b/1e3)
	}
}

func countName(n float64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1f B", n/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.0f M", n/1e6)
	default:
		return fmt.Sprintf("%.0f K", n/1e3)
	}
}

// readBandwidth runs the Algorithm-1 reader on a COMET-style cluster and
// returns the aggregate read bandwidth in bytes/sec (virtual bytes over the
// slowest rank's I/O+exchange time), as the Level-0 figures report.
// maxGeomReal (real bytes) sizes the overlap strategy's halo; it is unused
// by the message strategy.
func readBandwidth(nodes int, f *pfs.File, virtBlock int64, level core.AccessLevel, strategy core.Strategy, scale float64, maxGeomReal int64) (float64, error) {
	cc := cluster.Comet(nodes)
	cc.ByteScale = scale
	var bw float64
	var once sync.Once
	err := mpi.Run(cc, func(c *mpi.Comm) error {
		mf := mpiio.Open(c, f, mpiio.Hints{})
		_, _, err := core.ReadPartition(c, mf, nullParser{}, core.ReadOptions{
			BlockSize:   realBytes(virtBlock, scale),
			Level:       level,
			Strategy:    strategy,
			MaxGeomSize: maxGeomReal,
		})
		if err != nil {
			return err
		}
		total, err := maxNow(c, c.Now())
		if err != nil {
			return err
		}
		once.Do(func() { bw = float64(f.VirtualSize()) / total })
		return nil
	})
	return bw, err
}

// Fig8 sweeps node counts for the All Objects dataset at stripe sizes 64
// and 128 MB on 64 OSTs, independent reads (Level 0). The paper's headline:
// bandwidth rises with nodes, peaks ~22 GB/s near 48 nodes, then declines.
func Fig8(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "File read bandwidth, All Objects (92 GB), stripe count 64, Level 0",
		Header: []string{"nodes", "procs", "BW GB/s (64MB stripe)", "BW GB/s (128MB stripe)"},
		Notes:  "paper: max 22 GB/s at 48 nodes; drop beyond as contention saturates OSTs",
	}
	nodesSweep := []int{4, 8, 16, 32, 48, 64, 72}
	if cfg.Quick {
		nodesSweep = []int{2, 4}
	}
	spec := datagen.AllObjects()
	scale := cfg.scale(spec.DefaultScale)
	for _, nodes := range nodesSweep {
		row := []string{fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", nodes*16)}
		for _, virtStripe := range []int64{64e6, 128e6} {
			f, err := dataset(spec, scale, pfs.CometLustre(), 64, virtStripe)
			if err != nil {
				return nil, err
			}
			bw, err := readBandwidth(nodes, f, virtStripe, core.Level0, core.MessageBased, scale, 0)
			if err != nil {
				return nil, fmt.Errorf("fig8 nodes=%d stripe=%d: %v", nodes, virtStripe, err)
			}
			row = append(row, fmt.Sprintf("%.2f", bw/1e9))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9 sweeps node counts and OST counts for Roads with 32 MB stripes,
// independent reads. More OSTs help until the link saturates.
func Fig9(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "File read bandwidth, Roads (24 GB), stripe size 32 MB, Level 0",
		Header: []string{"nodes", "procs", "BW GB/s (32 OST)", "BW GB/s (64 OST)", "BW GB/s (96 OST)"},
		Notes:  "paper: 8-9 GB/s peak; bandwidth grows with OST count before saturation",
	}
	nodesSweep := []int{2, 4, 8, 16, 32, 48}
	if cfg.Quick {
		nodesSweep = []int{2, 4}
	}
	spec := datagen.Roads()
	scale := cfg.scale(spec.DefaultScale)
	const virtStripe = 32e6
	for _, nodes := range nodesSweep {
		row := []string{fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", nodes*16)}
		for _, osts := range []int{32, 64, 96} {
			f, err := dataset(spec, scale, pfs.CometLustre(), osts, virtStripe)
			if err != nil {
				return nil, err
			}
			bw, err := readBandwidth(nodes, f, virtStripe, core.Level0, core.MessageBased, scale, 0)
			if err != nil {
				return nil, fmt.Errorf("fig9 nodes=%d ost=%d: %v", nodes, osts, err)
			}
			row = append(row, fmt.Sprintf("%.2f", bw/1e9))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig10 compares the two file-partitioning strategies on Lakes with 32 MB
// blocks (Level 1): message-based Algorithm 1 vs overlapping halo reads.
// The paper finds message-based faster — the 11 MB halo costs more than
// shipping the missing coordinates.
func Fig10(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "Message vs Overlap partitioning, Lakes (9 GB), block 32 MB, Level 1",
		Header: []string{"nodes", "procs", "OST", "message (s)", "overlap (s)"},
		Notes:  "paper: message-based wins across stripe counts (Figure 10)",
	}
	nodesSweep := []int{4, 8, 16}
	ostSweep := []int{32, 64, 96}
	if cfg.Quick {
		nodesSweep = []int{2}
		ostSweep = []int{32}
	}
	spec := datagen.Lakes()
	scale := cfg.scale(spec.DefaultScale)
	const virtBlock = 32e6
	for _, nodes := range nodesSweep {
		for _, osts := range ostSweep {
			f, stats, err := datasetWithStats(spec, scale, pfs.CometLustre(), osts, virtBlock)
			if err != nil {
				return nil, err
			}
			times := make(map[core.Strategy]float64)
			for _, strat := range []core.Strategy{core.MessageBased, core.Overlap} {
				// The halo is the dataset's worst-case record size — the
				// paper's 11 MB bound, in real (scaled) bytes.
				bw, err := readBandwidth(nodes, f, virtBlock, core.Level1, strat, scale, stats.MaxRecordBytes)
				if err != nil {
					return nil, fmt.Errorf("fig10 nodes=%d ost=%d %s: %v", nodes, osts, strat, err)
				}
				times[strat] = float64(f.VirtualSize()) / bw
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", nodes*16), fmt.Sprintf("%d", osts),
				seconds(times[core.MessageBased]), seconds(times[core.Overlap]),
			})
		}
	}
	return t, nil
}

// Fig11 measures collective (Level 1) read time for Roads with 16 MB
// stripes across node and OST counts, reproducing the ROMIO reader-count
// dips: when the stripe count is not a multiple of the node count, fewer
// aggregators than nodes are selected (24/48/72 nodes on 64 OSTs).
func Fig11(cfg Config) (*Table, error) {
	nodesSweep := []int{4, 8, 16, 24, 32, 48, 64, 72}
	ostSweep := []int{32, 64, 96}
	if cfg.Quick {
		nodesSweep = []int{2, 3}
		ostSweep = []int{32}
	}
	header := []string{"nodes", "procs"}
	for _, osts := range ostSweep {
		header = append(header, fmt.Sprintf("time s (%d OST)", osts))
	}
	t := &Table{
		ID:     "fig11",
		Title:  "Collective read time, Roads (24 GB), stripe 16 MB, Level 1",
		Header: header,
		Notes:  "paper: dips at 24/48 nodes (64 OSTs) where ROMIO selects fewer readers than nodes",
	}
	spec := datagen.Roads()
	scale := cfg.scale(spec.DefaultScale)
	const virtBlock = 16e6
	for _, nodes := range nodesSweep {
		row := []string{fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", nodes*16)}
		for _, osts := range ostSweep {
			f, err := dataset(spec, scale, pfs.CometLustre(), osts, virtBlock)
			if err != nil {
				return nil, err
			}
			bw, err := readBandwidth(nodes, f, virtBlock, core.Level1, core.MessageBased, scale, 0)
			if err != nil {
				return nil, fmt.Errorf("fig11 nodes=%d ost=%d: %v", nodes, osts, err)
			}
			row = append(row, seconds(float64(f.VirtualSize())/bw))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
