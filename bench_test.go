// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (one testing.B target per artifact) at a reduced
// scale suitable for `go test -bench`. Full-scale sweeps run through
// cmd/vectorio-bench (`vectorio-bench -list` names every one; see
// internal/bench/README.md).
package repro

import (
	"testing"

	"repro/internal/bench"
)

// run executes one experiment per benchmark iteration and reports the
// virtual-time artifact row count so a vanishing table fails loudly.
func run(b *testing.B, id string) {
	b.Helper()
	cfg := bench.Config{Quick: true, ScaleMul: 8}
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

// BenchmarkTable1Levels regenerates Table 1: the three MPI-IO access levels
// demonstrated on one binary file.
func BenchmarkTable1Levels(b *testing.B) { run(b, "table1") }

// BenchmarkTable2SpatialOps regenerates Table 2: spatial datatypes under
// MIN/MAX/UNION reduction operators in Reduce and Scan.
func BenchmarkTable2SpatialOps(b *testing.B) { run(b, "table2") }

// BenchmarkTable3SequentialParse regenerates Table 3: sequential I/O+parse
// time for the six OSM-derived datasets.
func BenchmarkTable3SequentialParse(b *testing.B) { run(b, "table3") }

// BenchmarkFig5Declustering regenerates Figure 5: the spatial partitioning
// that results from contiguous vs non-contiguous file partitioning of a
// Hilbert-sorted file.
func BenchmarkFig5Declustering(b *testing.B) { run(b, "fig5") }

// BenchmarkFig8IndependentAllObjects regenerates Figure 8: Level-0 read
// bandwidth for All Objects (92 GB) across node counts and stripe sizes.
func BenchmarkFig8IndependentAllObjects(b *testing.B) { run(b, "fig8") }

// BenchmarkFig9IndependentRoads regenerates Figure 9: Level-0 read
// bandwidth for Roads (24 GB) across OST counts.
func BenchmarkFig9IndependentRoads(b *testing.B) { run(b, "fig9") }

// BenchmarkFig10MessageVsOverlap regenerates Figure 10: message-based
// Algorithm 1 vs overlap (halo) file partitioning.
func BenchmarkFig10MessageVsOverlap(b *testing.B) { run(b, "fig10") }

// BenchmarkFig11CollectiveRoads regenerates Figure 11: Level-1 collective
// read time with ROMIO aggregator-selection dips.
func BenchmarkFig11CollectiveRoads(b *testing.B) { run(b, "fig11") }

// BenchmarkFig12StructVsContiguous regenerates Figure 12: binary reads
// decoded through MPI_Type_struct vs MPI_Type_contiguous.
func BenchmarkFig12StructVsContiguous(b *testing.B) { run(b, "fig12") }

// BenchmarkFig13UnionReduceScan regenerates Figure 13: MPI_Reduce and
// MPI_Scan under the user-defined geometric UNION operator.
func BenchmarkFig13UnionReduceScan(b *testing.B) { run(b, "fig13") }

// BenchmarkFig14IOParseGPFS regenerates Figure 14: I/O+parsing for All
// Nodes (points) vs All Objects (polygons) on GPFS.
func BenchmarkFig14IOParseGPFS(b *testing.B) { run(b, "fig14") }

// BenchmarkFig15NonContiguousBinary regenerates Figure 15: contiguous vs
// non-contiguous binary reads across block sizes.
func BenchmarkFig15NonContiguousBinary(b *testing.B) { run(b, "fig15") }

// BenchmarkFig16NonContiguousPolygons regenerates Figure 16: non-contiguous
// polygon I/O through MPI_Type_indexed file views.
func BenchmarkFig16NonContiguousPolygons(b *testing.B) { run(b, "fig16") }

// BenchmarkFig17JoinGridCells regenerates Figure 17: spatial join breakdown
// against the number of grid cells.
func BenchmarkFig17JoinGridCells(b *testing.B) { run(b, "fig17") }

// BenchmarkFig18JoinLakesCemetery regenerates Figure 18: join breakdown
// against process count (join-dominated).
func BenchmarkFig18JoinLakesCemetery(b *testing.B) { run(b, "fig18") }

// BenchmarkFig19JoinRoadsCemetery regenerates Figure 19: join breakdown
// against process count (communication-dominated).
func BenchmarkFig19JoinRoadsCemetery(b *testing.B) { run(b, "fig19") }

// BenchmarkFig20IndexRoadNetwork regenerates Figure 20: parallel indexing
// of Road Network (137 GB) over 2048 grid cells.
func BenchmarkFig20IndexRoadNetwork(b *testing.B) { run(b, "fig20") }
