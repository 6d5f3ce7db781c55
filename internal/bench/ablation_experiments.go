package bench

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/sfc"
	"repro/internal/spatial"
	"repro/internal/wkt"
)

// Fig5 demonstrates how the file-partitioning mode shapes the spatial
// partitioning (paper Figure 5): on a spatially-sorted file, contiguous
// partitions give every process one coarse compact region, while
// round-robin (non-contiguous) block assignment declusters each process
// across the whole space — which is what balances skewed workloads.
func Fig5(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "Spatial partitioning resulting from file partitioning (Hilbert-sorted file, 6 processes)",
		Header: []string{"file partitioning", "block", "avg rank extent (% world)", "hotspot max/mean load"},
		Notes:  "paper Fig 5: contiguous -> coarse compact regions; round-robin -> fine declustered cells",
	}
	spec := datagen.Lakes()
	scale := cfg.scale(spec.DefaultScale)
	f, err := dataset(spec, scale, pfs.RogerGPFS(), 0, 0)
	if err != nil {
		return nil, err
	}
	geoms, err := parseAll(f)
	if err != nil {
		return nil, err
	}
	world := core.LocalEnvelope(geoms)
	sfc.SortByHilbert(geoms, world)

	const ranks = 6
	// The hotspot is the densest cell of a coarse histogram — a stand-in
	// for a skewed query workload.
	hotspot := densestWindow(geoms, world, 8)

	assign := func(mode string, block int) {
		perRank := make([][]geom.Geometry, ranks)
		if block <= 0 { // contiguous equal split
			per := (len(geoms) + ranks - 1) / ranks
			for r := 0; r < ranks; r++ {
				lo := min(r*per, len(geoms))
				hi := min(lo+per, len(geoms))
				perRank[r] = geoms[lo:hi]
			}
		} else { // round-robin blocks
			for b := 0; b*block < len(geoms); b++ {
				lo := b * block
				hi := min(lo+block, len(geoms))
				r := b % ranks
				perRank[r] = append(perRank[r], geoms[lo:hi]...)
			}
		}
		var extentSum float64
		loads := make([]int, ranks)
		for r, gs := range perRank {
			env := core.LocalEnvelope(gs)
			if !env.IsEmpty() {
				extentSum += env.Area() / world.Area()
			}
			for _, g := range gs {
				if g.Envelope().Intersects(hotspot) {
					loads[r]++
				}
			}
		}
		maxLoad, total := 0, 0
		for _, l := range loads {
			total += l
			if l > maxLoad {
				maxLoad = l
			}
		}
		imbalance := 0.0
		if total > 0 {
			imbalance = float64(maxLoad) / (float64(total) / ranks)
		}
		blockLabel := "-"
		if block > 0 {
			blockLabel = fmt.Sprintf("%d", block)
		}
		t.Rows = append(t.Rows, []string{
			mode, blockLabel,
			fmt.Sprintf("%.1f", extentSum/ranks*100),
			fmt.Sprintf("%.2f", imbalance),
		})
	}
	assign("contiguous (default view)", 0)
	blocks := []int{256, 64, 16}
	if cfg.Quick {
		blocks = []int{16}
	}
	for _, b := range blocks {
		assign("round-robin (non-contiguous)", b)
	}
	return t, nil
}

// parseAll reads and parses every WKT record of a pfs file sequentially.
func parseAll(f *pfs.File) ([]geom.Geometry, error) {
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	var out []geom.Geometry
	for _, line := range bytes.Split(buf, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		g, err := wkt.Parse(line)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// densestWindow returns the cell of an n x n histogram over env holding the
// most geometry centers.
func densestWindow(gs []geom.Geometry, env geom.Envelope, n int) geom.Envelope {
	g, err := grid.New(env, n, n)
	if err != nil {
		return env
	}
	counts := make([]int, g.NumCells())
	for _, gg := range gs {
		c := gg.Envelope().Center()
		counts[g.CellAt(c.X, c.Y)]++
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	_ = err
	return g.CellEnv(best)
}

// AblationAggregators sweeps the cb_nodes hint for a collective read of
// Roads on Lustre — the tuning dimension of §5.1.1: too few aggregators
// leave OSTs idle, as many as nodes is the ROMIO ceiling.
func AblationAggregators(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ablation-aggsel",
		Title:  "[ablation] cb_nodes hint vs collective read time (Roads, 16 nodes, 64 OSTs)",
		Header: []string{"cb_nodes", "readers", "time (s)"},
		Notes:  "collective read time improves with aggregator count up to the node count",
	}
	nodes := 16
	sweep := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		nodes = 2
		sweep = []int{1, 2}
	}
	spec := datagen.Roads()
	scale := cfg.scale(spec.DefaultScale)
	const virtBlock = 16e6
	f, err := dataset(spec, scale, pfs.CometLustre(), 64, virtBlock)
	if err != nil {
		return nil, err
	}
	for _, cb := range sweep {
		var tmax float64
		var once sync.Once
		cc := cluster.Comet(nodes)
		cc.ByteScale = scale
		err := mpi.Run(cc, func(c *mpi.Comm) error {
			mf := mpiio.Open(c, f, mpiio.Hints{CBNodes: cb})
			_, _, err := core.ReadPartition(c, mf, nullParser{}, core.ReadOptions{
				BlockSize: realBytes(virtBlock, scale),
				Level:     core.Level1,
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
		if err != nil {
			return nil, fmt.Errorf("ablation-aggsel cb=%d: %v", cb, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", cb), fmt.Sprintf("%d", effectiveReaders(cb, 64)), seconds(tmax),
		})
	}
	return t, nil
}

// effectiveReaders mirrors the Lustre reader-selection rule for display.
func effectiveReaders(nodes, stripeCount int) int {
	if nodes <= 0 {
		return 1
	}
	if stripeCount%nodes == 0 {
		return nodes
	}
	best := 1
	for d := 1; d <= stripeCount && d <= nodes; d++ {
		if stripeCount%d == 0 {
			best = d
		}
	}
	return best
}

// AblationWindow sweeps the sliding-window size of the all-to-all
// geometry exchange (§4.2.3): smaller windows bound peak memory at the
// cost of more exchange phases.
func AblationWindow(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ablation-window",
		Title:  "[ablation] sliding-window cells per exchange phase (Lakes, 40 procs, 1024 cells)",
		Header: []string{"window (cells)", "phases", "comm (s)"},
		Notes:  "one phase moves everything at once; windows trade exchange rounds for bounded buffers",
	}
	procs := 40
	sweep := []int{0, 256, 64, 16}
	if cfg.Quick {
		procs = 4
		sweep = []int{0, 64}
	}
	spec := datagen.Lakes()
	scale := cfg.scale(spec.DefaultScale)
	f, err := dataset(spec, scale, pfs.RogerGPFS(), 0, 0)
	if err != nil {
		return nil, err
	}
	for _, window := range sweep {
		var comm float64
		var phases int
		var once sync.Once
		cc := rogerCluster(procs, scale)
		err := mpi.Run(cc, func(c *mpi.Comm) error {
			mf := mpiio.Open(c, f, mpiio.Hints{})
			local, _, err := core.ReadPartition(c, mf, core.NewWKTParser(), core.ReadOptions{
				BlockSize: realBytes(64e6, scale),
			})
			if err != nil {
				return err
			}
			global, err := core.GlobalEnvelope(c, core.LocalEnvelope(local))
			if err != nil {
				return err
			}
			g, err := grid.New(global, 32, 32)
			if err != nil {
				return err
			}
			pt := &core.Partitioner{Grid: g, WindowCells: window}
			_, stats, err := pt.Exchange(c, local)
			if err != nil {
				return err
			}
			cm, err := maxNow(c, stats.CommTime())
			if err != nil {
				return err
			}
			once.Do(func() { comm, phases = cm, stats.Phases })
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("ablation-window %d: %v", window, err)
		}
		label := "single phase"
		if window > 0 {
			label = fmt.Sprintf("%d", window)
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%d", phases), seconds(comm)})
	}
	return t, nil
}

// AblationCellIndex compares the paper's cell-location mechanism — an
// R-tree built over the grid-cell boundaries, queried with each geometry's
// MBR (§4) — against direct uniform-grid arithmetic.
func AblationCellIndex(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ablation-cellindex",
		Title:  "[ablation] grid-cell lookup: R-tree over cell boundaries vs direct arithmetic (Lakes, 40 procs)",
		Header: []string{"mechanism", "partition (s)"},
		Notes:  "identical cell assignments either way; the R-tree is the paper's description, arithmetic the fast equivalent",
	}
	procs := 40
	if cfg.Quick {
		procs = 4
	}
	spec := datagen.Lakes()
	scale := cfg.scale(spec.DefaultScale)
	f, err := dataset(spec, scale, pfs.RogerGPFS(), 0, 0)
	if err != nil {
		return nil, err
	}
	for _, direct := range []bool{false, true} {
		var project float64
		var once sync.Once
		cc := rogerCluster(procs, scale)
		err := mpi.Run(cc, func(c *mpi.Comm) error {
			mf := mpiio.Open(c, f, mpiio.Hints{})
			local, _, err := core.ReadPartition(c, mf, core.NewWKTParser(), core.ReadOptions{
				BlockSize: realBytes(64e6, scale),
			})
			if err != nil {
				return err
			}
			global, err := core.GlobalEnvelope(c, core.LocalEnvelope(local))
			if err != nil {
				return err
			}
			g, err := grid.New(global, 32, 32)
			if err != nil {
				return err
			}
			pt := &core.Partitioner{Grid: g, DirectGrid: direct}
			_, stats, err := pt.Exchange(c, local)
			if err != nil {
				return err
			}
			pj, err := maxNow(c, stats.ProjectTime())
			if err != nil {
				return err
			}
			once.Do(func() { project = pj })
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("ablation-cellindex direct=%v: %v", direct, err)
		}
		label := "R-tree of cell boundaries (paper)"
		if direct {
			label = "uniform-grid arithmetic"
		}
		t.Rows = append(t.Rows, []string{label, seconds(project)})
	}
	return t, nil
}

// AblationDuplicates shows why reference-point duplicate avoidance exists:
// with replication to every overlapping cell and no duplicate rule, the
// join over-reports pairs.
func AblationDuplicates(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ablation-dupavoid",
		Title:  "[ablation] reference-point duplicate avoidance (Lakes ⋈ Cemetery)",
		Header: []string{"duplicate avoidance", "pairs reported", "refine (s)"},
		Notes:  "geometries replicate into every overlapping cell; without the rule, multi-cell pairs count repeatedly",
	}
	procs := 20
	if cfg.Quick {
		procs = 4
	}
	specR, specS := datagen.Lakes(), datagen.Cemetery()
	scale := cfg.scale(specR.DefaultScale)
	fR, err := dataset(specR, scale, pfs.RogerGPFS(), 0, 0)
	if err != nil {
		return nil, err
	}
	fS, err := dataset(specS, scale, pfs.RogerGPFS(), 0, 0)
	if err != nil {
		return nil, err
	}
	for _, keep := range []bool{false, true} {
		var bd spatial.Breakdown
		var once sync.Once
		cc := rogerCluster(procs, scale)
		err := mpi.Run(cc, func(c *mpi.Comm) error {
			mfR := mpiio.Open(c, fR, mpiio.Hints{})
			mfS := mpiio.Open(c, fS, mpiio.Hints{})
			res, err := spatial.JoinFiles(c, mfR, mfS, core.NewWKTParser(),
				core.ReadOptions{BlockSize: realBytes(64e6, scale)},
				spatial.JoinOptions{GridCells: 16384, KeepDuplicates: keep})
			if err != nil {
				return err
			}
			once.Do(func() { bd = res })
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("ablation-dupavoid keep=%v: %v", keep, err)
		}
		label := "on (reference point rule)"
		if keep {
			label = "off"
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%d", bd.Pairs), seconds(bd.Refine)})
	}
	return t, nil
}
