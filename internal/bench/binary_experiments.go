package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/wkb"
)

// rectFile builds a binary file of n MBR records (4 doubles each) on the
// given filesystem, tagged with scale.
func rectFile(params pfs.Params, n int, scale float64, seed int64) (*pfs.File, error) {
	fs, err := pfs.New(params)
	if err != nil {
		return nil, err
	}
	f, err := fs.Create("rects.bin", 0, 0)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	buf := make([]byte, 0, 1<<16)
	for i := 0; i < n; i++ {
		x, y := r.Float64()*360-180, r.Float64()*180-90
		buf = wkb.AppendRect(buf, geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64(), MaxY: y + r.Float64()})
		if len(buf) >= 1<<16 {
			f.Append(buf)
			buf = buf[:0]
		}
	}
	f.Append(buf)
	f.SetScale(scale)
	return f, nil
}

// Fig12 reads a binary MBR file collectively and decodes the records two
// ways: through an MPI_Type_struct file type (the implementation builds
// the records internally in one pass) and through MPI_Type_contiguous of
// four doubles (user code assembles the struct in an extra conversion
// loop). The paper finds struct faster (§5.1.2, Figure 12).
func Fig12(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "Binary file reading with MPI derived datatypes (GPFS, Level 1)",
		Header: []string{"procs", "struct (s)", "contiguous (s)"},
		Notes:  "paper: MPI_Type_struct beats MPI_Type_contiguous (extra user-space copy)",
	}
	nodesSweep := []int{1, 2, 3, 4}
	if cfg.Quick {
		nodesSweep = []int{1}
	}
	scale := cfg.scale(256)
	records := int(realBytes(4e9, scale)) / wkb.RectRecordSize // 4 GB virtual of MBRs
	f, err := rectFile(pfs.RogerGPFS(), records, scale, 7)
	if err != nil {
		return nil, err
	}
	structType, err := mpi.TypeStruct([]mpi.StructField{{Offset: 0, Count: 4, Type: mpi.Float64}}, 32)
	if err != nil {
		return nil, err
	}
	contigType, err := mpi.TypeContiguous(4, mpi.Float64)
	if err != nil {
		return nil, err
	}
	for _, nodes := range nodesSweep {
		cc := cluster.Roger(nodes)
		cc.ByteScale = scale
		row := []string{fmt.Sprintf("%d", nodes*20)}
		for _, useStruct := range []bool{true, false} {
			var tmax float64
			var once sync.Once
			err := mpi.Run(cc, func(c *mpi.Comm) error {
				mf := mpiio.Open(c, f, mpiio.Hints{})
				per := (f.Size() + int64(c.Size()) - 1) / int64(c.Size())
				per -= per % wkb.RectRecordSize
				off := int64(c.Rank()) * per
				length := min(per, max(f.Size()-off, 0))
				buf := make([]byte, length)
				if _, err := mf.ReadAtAll(buf, off); err != nil && err != io.EOF {
					return err
				}
				// Decode for real; charge the modeled per-path cost.
				rects, err := wkb.DecodeRects(buf)
				if err != nil {
					return err
				}
				virt := float64(length) * scale
				if useStruct {
					_ = structType
					c.Charge(simtime.Decode, costmodel.StructDecodePerByte*virt)
				} else {
					_ = contigType
					c.Charge(simtime.Decode, costmodel.ContiguousDecodePerByte*virt+
						costmodel.ContiguousDecodePerElem*float64(len(rects))*scale)
				}
				tm, err := maxNow(c, c.Now())
				if err != nil {
					return err
				}
				once.Do(func() { tmax = tm })
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig12 nodes=%d struct=%v: %v", nodes, useStruct, err)
			}
			row = append(row, seconds(tmax))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig13 times MPI_Reduce and MPI_Scan under the user-defined geometric
// UNION operator over arrays of 100K/200K/400K rectangles — the spatial
// collective computation of §4.2.2 (Figure 13). This experiment runs at
// full scale: the rectangle arrays are the real workload.
func Fig13(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "MPI Reduce and Scan for geometric Union",
		Header: []string{"procs", "rects", "reduce (s)", "scan (s)"},
		Notes:  "user-defined MPI_UNION over MPI_RECT arrays, reduction-tree execution",
	}
	procsSweep := []int{2, 4, 8}
	counts := []int{100_000, 200_000, 400_000}
	if cfg.Quick {
		procsSweep = []int{2}
		counts = []int{10_000}
	}
	for _, procs := range procsSweep {
		for _, count := range counts {
			nodes := (procs + 19) / 20
			cc := cluster.Roger(nodes)
			cc.RanksPerNode = (procs + nodes - 1) / nodes
			var reduceT, scanT float64
			var once sync.Once
			err := mpi.Run(cc, func(c *mpi.Comm) error {
				r := rand.New(rand.NewSource(int64(c.Rank()) + 1))
				rects := make([]geom.Envelope, count)
				for i := range rects {
					x, y := r.Float64()*100, r.Float64()*100
					rects[i] = geom.Envelope{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1}
				}
				t0 := c.Now()
				if _, err := core.ReduceRects(c, rects, core.OpRectUnion, 0); err != nil {
					return err
				}
				rT, err := maxNow(c, c.Now()-t0)
				if err != nil {
					return err
				}
				t1 := c.Now()
				if _, err := core.ScanRects(c, rects, core.OpRectUnion); err != nil {
					return err
				}
				sT, err := maxNow(c, c.Now()-t1)
				if err != nil {
					return err
				}
				once.Do(func() { reduceT, scanT = rT, sT })
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig13 procs=%d count=%d: %v", procs, count, err)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", procs), countName(float64(count)),
				fmt.Sprintf("%.4f", reduceT), fmt.Sprintf("%.4f", scanT),
			})
		}
	}
	return t, nil
}

// Fig15 compares contiguous (Level 1) and non-contiguous (Level 3) reads
// of a 10 GB binary MBR file, sweeping the non-contiguous block size in
// records. Contiguous wins; larger NC blocks close the gap (Figure 15).
func Fig15(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig15",
		Title:  "Binary file (10 GB): contiguous vs non-contiguous block sizes (GPFS)",
		Header: []string{"procs", "mode", "block (MBRs)", "time (s)"},
		Notes:  "paper: contiguous much faster; NC improves with block size",
	}
	procsSweep := []int{20, 40}
	blockSweep := []int{1024, 8192, 65536}
	scale := cfg.scale(64)
	if cfg.Quick {
		procsSweep = []int{4}
		blockSweep = []int{256}
		scale = cfg.scale(1024)
	}
	records := int(realBytes(10e9, scale)) / wkb.RectRecordSize
	f, err := rectFile(pfs.RogerGPFS(), records, scale, 8)
	if err != nil {
		return nil, err
	}
	for _, procs := range procsSweep {
		nodes := (procs + 19) / 20
		cc := cluster.Roger(nodes)
		cc.RanksPerNode = (procs + nodes - 1) / nodes
		cc.ByteScale = scale

		// Contiguous Level 1 baseline.
		tm, err := timedContiguousRead(cc, f)
		if err != nil {
			return nil, fmt.Errorf("fig15 contig procs=%d: %v", procs, err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", procs), "contiguous", "-", seconds(tm)})

		for _, block := range blockSweep {
			tm, err := timedRoundRobinRead(cc, f, block)
			if err != nil {
				return nil, fmt.Errorf("fig15 nc procs=%d block=%d: %v", procs, block, err)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", procs), "non-contiguous", fmt.Sprintf("%d", block), seconds(tm),
			})
		}
	}
	return t, nil
}

// timedContiguousRead reads the whole file with equal contiguous
// partitions at Level 1 and returns the slowest rank's time.
func timedContiguousRead(cc *cluster.Config, f *pfs.File) (float64, error) {
	return timedEqualRead(cc, f, wkb.RectRecordSize, true)
}

// timedRoundRobinRead reads the file through a non-contiguous Level 3 view:
// blocks of `block` records distributed round-robin over ranks, the
// declustered file layout of Figure 4. The view is read in 1 GB (virtual)
// slices under the ROMIO limit; ranks owning no blocks still participate in
// every collective call with an empty request.
func timedRoundRobinRead(cc *cluster.Config, f *pfs.File, block int) (float64, error) {
	var tmax float64
	var once sync.Once
	err := mpi.Run(cc, func(c *mpi.Comm) error {
		mf := mpiio.Open(c, f, mpiio.Hints{})
		n := c.Size()
		recTotal := int(f.Size()) / wkb.RectRecordSize
		blocksTotal := (recTotal + block - 1) / block
		myBlocks := 0
		for b := c.Rank(); b < blocksTotal; b += n {
			myBlocks++
		}
		var buf []byte
		if myBlocks > 0 {
			rec, err := mpi.TypeContiguous(wkb.RectRecordSize, mpi.Byte)
			if err != nil {
				return err
			}
			ft, err := mpi.TypeVector(myBlocks, block, n*block, rec)
			if err != nil {
				return err
			}
			if err := mf.SetView(int64(c.Rank()*block*wkb.RectRecordSize), mpi.Byte, ft); err != nil {
				return err
			}
			buf = make([]byte, myBlocks*block*wkb.RectRecordSize)
		}
		// Same slice count on every rank: derived from the largest view.
		maxBlocks := (blocksTotal + n - 1) / n
		maxBytes := int64(maxBlocks) * int64(block) * wkb.RectRecordSize
		chunk := realBytes(1e9, f.Scale())
		for lo := int64(0); lo == 0 || lo < maxBytes; lo += chunk {
			clo := min(lo, int64(len(buf)))
			chi := min(lo+chunk, int64(len(buf)))
			if _, err := mf.ReadViewAll(buf[clo:chi], clo); err != nil && err != io.EOF {
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
