package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// TestReadPartitionCollectiveErrorAgreement: a parse failure local to one
// rank's partition must surface as an error on EVERY rank — clean ranks
// get ErrRemoteParse — so a collective read never splits into
// succeeded/failed halves.
func TestReadPartitionCollectiveErrorAgreement(t *testing.T) {
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("half.wkt", 2, 1<<10)
	// Rank 0's half is clean; the garbage lands in the last partition.
	pf.Write([]byte("POINT (1 1)\nPOINT (2 2)\nPOINT (3 3)\nBROKEN (\n"))

	var mu sync.Mutex
	errs := map[int]error{}
	runErr := mpi.Run(cluster.Local(4), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, _, err := ReadPartition(c, f, WKTParser{}, ReadOptions{})
		mu.Lock()
		errs[c.Rank()] = err
		mu.Unlock()
		return nil // collect, don't abort
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	remote := 0
	local := 0
	for rank, err := range errs {
		if err == nil {
			t.Errorf("rank %d returned nil error despite remote parse failure", rank)
			continue
		}
		if errors.Is(err, ErrRemoteParse) {
			remote++
		} else {
			local++
		}
	}
	if local != 1 {
		t.Errorf("%d ranks reported the local parse error, want exactly 1", local)
	}
	if remote != 3 {
		t.Errorf("%d ranks reported ErrRemoteParse, want 3", remote)
	}
}

// TestReadPartitionCustomDelimiter checks that records separated by ';'
// instead of newlines partition just as well — the delimiter is a
// parameter of the framing, not an assumption.
func TestReadPartitionCustomDelimiter(t *testing.T) {
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("semi.wkt", 2, 1<<10)
	pf.Write([]byte("POINT (1 1);POINT (2 2);POINT (3 3);POINT (4 4)"))

	var mu sync.Mutex
	total := 0
	err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		geoms, _, err := ReadPartition(c, f, WKTParser{}, ReadOptions{
			BlockSize: 8, Framing: Delimited(';'),
		})
		if err != nil {
			return err
		}
		mu.Lock()
		total += len(geoms)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Errorf("recovered %d records, want 4", total)
	}
}

// TestReadPartitionROMIOLimit: a block size over 2 GB virtual must fail
// with the ROMIO limit error rather than silently mis-read.
func TestReadPartitionROMIOLimit(t *testing.T) {
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("huge.wkt", 4, 1<<20)
	pf.Write([]byte("POINT (1 1)\nPOINT (2 2)\n"))
	pf.SetScale(1 << 28) // each real byte stands for 256 MB

	err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, _, err := ReadPartition(c, f, WKTParser{}, ReadOptions{BlockSize: 12})
		return err
	})
	if err == nil {
		t.Fatal("expected ROMIO limit error")
	}
	if !errors.Is(err, mpiio.ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// TestReadPartitionManyIterationsStats: iteration math must follow
// ceil(fileSize / (ranks * blockSize)) exactly.
func TestReadPartitionManyIterationsStats(t *testing.T) {
	records := genRecords(200, 42)
	pf := makeWKTFile(t, records)
	fileSize := pf.Size()
	const ranks = 3
	const block = 512
	wantIters := int((fileSize + ranks*block - 1) / (ranks * block))

	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, stats, err := ReadPartition(c, f, WKTParser{}, ReadOptions{BlockSize: block})
		if err != nil {
			return err
		}
		if stats.Iterations != wantIters {
			return fmt.Errorf("rank %d: %d iterations, want %d", c.Rank(), stats.Iterations, wantIters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadPartitionSkipErrorsKeepsGoodRecords: with SkipErrors, garbage
// interleaved among good records costs nothing but an error count.
func TestReadPartitionSkipErrorsKeepsGoodRecords(t *testing.T) {
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("mixed.wkt", 2, 1<<10)
	content := ""
	good := 0
	for i := 0; i < 60; i++ {
		if i%3 == 2 {
			content += fmt.Sprintf("JUNK-%d\n", i)
		} else {
			content += fmt.Sprintf("POINT (%d %d)\n", i, i)
			good++
		}
	}
	pf.Write([]byte(content))

	var mu sync.Mutex
	records, errCount := 0, 0
	err := mpi.Run(cluster.Local(4), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		geoms, stats, err := ReadPartition(c, f, WKTParser{}, ReadOptions{
			BlockSize: 64, SkipErrors: true,
		})
		if err != nil {
			return err
		}
		mu.Lock()
		records += len(geoms)
		errCount += stats.Errors
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records != good {
		t.Errorf("recovered %d good records, want %d", records, good)
	}
	if errCount != 60-good {
		t.Errorf("counted %d errors, want %d", errCount, 60-good)
	}
}
