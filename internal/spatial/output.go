package spatial

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/wkt"
)

// WriteCells writes distributed per-cell results to a single shared file
// whose storage order is the global grid layout in row-major cell order —
// §4.1's non-contiguous output pattern ("the output file is same as if
// produced sequentially"). Each rank holds the cells it owns; cell
// payloads are newline-delimited WKT. The cell-size metadata round uses
// MPI_Allgather and a prefix sum to derive every cell's file offset, then
// each rank writes all its (non-adjacent) cell regions through one
// non-contiguous collective write. Returns the total file size. All ranks
// must call it collectively.
func WriteCells(c *mpi.Comm, f *mpiio.File, g grid.Partition, owned map[int][]geom.Geometry) (int64, error) {
	numCells := g.NumCells()

	// Serialize owned cells and record their sizes.
	payloads := make(map[int][]byte, len(owned))
	localSizes := make([]byte, numCells*8)
	for cell, gs := range owned {
		if cell < 0 || cell >= numCells {
			return 0, fmt.Errorf("spatial: cell %d outside grid of %d", cell, numCells)
		}
		var buf []byte
		for _, gg := range gs {
			buf = append(buf, wkt.Format(gg)...)
			buf = append(buf, '\n')
		}
		payloads[cell] = buf
		binary.LittleEndian.PutUint64(localSizes[cell*8:], uint64(len(buf)))
	}

	// Metadata round: every rank learns every cell's size (cells are
	// disjointly owned, so a max-reduction assembles the global vector).
	globalSizes, err := c.Allreduce(localSizes, numCells, mpi.Int64, opMaxInt64)
	if err != nil {
		return 0, fmt.Errorf("spatial: size exchange: %w", err)
	}
	offsets := make([]int64, numCells)
	var total int64
	for cell := 0; cell < numCells; cell++ {
		offsets[cell] = total
		total += int64(binary.LittleEndian.Uint64(globalSizes[cell*8:]))
	}

	// Build this rank's non-contiguous view: its cell regions in file
	// order, and the concatenated payload matching that order.
	cells := make([]int, 0, len(payloads))
	for cell := range payloads {
		cells = append(cells, cell)
	}
	sort.Ints(cells)
	var blockLens, blockDispls []int
	var out []byte
	for _, cell := range cells {
		p := payloads[cell]
		if len(p) == 0 {
			continue
		}
		blockLens = append(blockLens, len(p))
		blockDispls = append(blockDispls, int(offsets[cell]))
		out = append(out, p...)
	}
	if len(blockLens) > 0 {
		ft, err := mpi.TypeIndexed(blockLens, blockDispls, mpi.Byte)
		if err != nil {
			return 0, fmt.Errorf("spatial: output view: %w", err)
		}
		// TypeIndexed validates this rank's own cell layout: a rank that
		// cannot build its view has nothing to write and returns above, and
		// the world abort releases the peers with ErrAborted.
		if err := f.SetView(0, mpi.Byte, ft); err != nil {
			return 0, fmt.Errorf("spatial: output view: %w", err)
		}
		defer f.ClearView()
	} else {
		f.ClearView()
	}

	// Write in slices under the ROMIO 2 GB single-operation limit; every
	// rank must issue the same number of collective calls, so the slice
	// count is agreed on via a reduction over the largest payload.
	chunk := int64(float64(1e9) / f.PFSFile().Scale())
	if chunk < 1 {
		chunk = 1
	}
	myLen := int64(len(out))
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(myLen))
	// Reachable only past the rank-local TypeIndexed return above, whose
	// world-abort teardown releases the peers.
	maxBuf, err := c.Allreduce(lenBuf[:], 1, mpi.Int64, opMaxInt64)
	if err != nil {
		return 0, fmt.Errorf("spatial: write sizing: %w", err)
	}
	maxLen := int64(binary.LittleEndian.Uint64(maxBuf))
	for lo := int64(0); lo == 0 || lo < maxLen; lo += chunk {
		clo := min(lo, myLen)
		chi := min(lo+chunk, myLen)
		if _, err := f.WriteViewAll(out[clo:chi], clo); err != nil {
			return 0, fmt.Errorf("spatial: collective write: %w", err)
		}
	}
	return total, nil
}

// opMaxInt64 folds int64 buffers element-wise by maximum — used to
// assemble disjointly-contributed metadata vectors.
var opMaxInt64 = mpi.OpCreate("MPI_MAX_INT64", true, func(in, inout []byte, count int, dt *mpi.Datatype) error {
	if dt.Size() != 8 {
		return fmt.Errorf("MPI_MAX_INT64 requires an 8-byte type, got %s", dt.Name())
	}
	for i := 0; i < count; i++ {
		a := int64(binary.LittleEndian.Uint64(in[i*8:]))
		b := int64(binary.LittleEndian.Uint64(inout[i*8:]))
		if a > b {
			binary.LittleEndian.PutUint64(inout[i*8:], uint64(a))
		}
	}
	return nil
})
