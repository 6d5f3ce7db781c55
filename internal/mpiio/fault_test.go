package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

func faultFS(t *testing.T, size int) (*pfs.FS, *pfs.File) {
	t.Helper()
	fs, err := pfs.New(pfs.BasicNFS())
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fs.Create("data", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i)
	}
	pf.Write(content)
	return fs, pf
}

func TestReadAtTransientAbsorbed(t *testing.T) {
	fs, pf := faultFS(t, 4096)
	var mu sync.Mutex
	fires := 0
	fs.InjectReadFault(func(file string, off int64, n, stripe int) pfs.ReadFault {
		mu.Lock()
		defer mu.Unlock()
		if off == 0 && fires < 2 {
			fires++
			return pfs.ReadFault{Err: fmt.Errorf("OST hiccup: %w", pfs.ErrTransientRead)}
		}
		return pfs.ReadFault{}
	})
	defer fs.InjectReadFault(nil)
	var after float64
	err := mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
		f := Open(c, pf, Hints{})
		buf := make([]byte, 1024)
		n, err := f.ReadAt(buf, 0)
		if err != nil {
			return err
		}
		if n != 1024 || buf[5] != 5 {
			return fmt.Errorf("retried read returned n=%d buf[5]=%d", n, buf[5])
		}
		after = c.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fires != 2 {
		t.Errorf("hook fired %d times, want 2", fires)
	}
	// Two retries charge retryBackoff + 2*retryBackoff of virtual time on
	// top of the modeled read.
	if after < 3*retryBackoff {
		t.Errorf("virtual clock %v does not include the retry backoff", after)
	}
}

func TestReadAtTransientExhausted(t *testing.T) {
	fs, pf := faultFS(t, 4096)
	fs.InjectReadFault(func(file string, off int64, n, stripe int) pfs.ReadFault {
		return pfs.ReadFault{Err: fmt.Errorf("always down: %w", pfs.ErrTransientRead)}
	})
	defer fs.InjectReadFault(nil)
	err := mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
		f := Open(c, pf, Hints{})
		_, err := f.ReadAt(make([]byte, 64), 0)
		return err
	})
	if err == nil || !errors.Is(err, pfs.ErrTransientRead) {
		t.Fatalf("err = %v, want exhausted-retries transient error", err)
	}
}

func TestReadAtShortReadContinues(t *testing.T) {
	fs, pf := faultFS(t, 4096)
	var mu sync.Mutex
	shorted := false
	fs.InjectReadFault(func(file string, off int64, n, stripe int) pfs.ReadFault {
		mu.Lock()
		defer mu.Unlock()
		if off == 0 && !shorted {
			shorted = true
			return pfs.ReadFault{Short: 100}
		}
		return pfs.ReadFault{}
	})
	defer fs.InjectReadFault(nil)
	err := mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
		f := Open(c, pf, Hints{})
		buf := make([]byte, 1024)
		n, err := f.ReadAt(buf, 0)
		if err != nil {
			return err
		}
		want := make([]byte, 1024)
		for i := range want {
			want[i] = byte(i)
		}
		if n != 1024 || !bytes.Equal(buf, want) {
			return fmt.Errorf("short read not continued: n=%d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !shorted {
		t.Error("short-read hook never fired")
	}
}

func TestReadAtSyncRemoteAgreement(t *testing.T) {
	// Rank 1's stripe is permanently unreadable. Rank 1 must get the
	// concrete error; rank 0's own successful read must still end in
	// ErrRemoteRead — collective agreement, nobody stranded in the sync.
	fs, pf := faultFS(t, 4096)
	diskErr := errors.New("pfs: OST 3 offline")
	fs.InjectReadFault(func(file string, off int64, n, stripe int) pfs.ReadFault {
		if off == 1024 {
			return pfs.ReadFault{Err: diskErr}
		}
		return pfs.ReadFault{}
	})
	defer fs.InjectReadFault(nil)
	errs := make([]error, 2)
	if err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := Open(c, pf, Hints{})
		buf := make([]byte, 1024)
		_, errs[c.Rank()] = f.ReadAtSync(buf, int64(c.Rank())*1024)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[1], diskErr) {
		t.Errorf("failing rank err = %v, want the concrete disk error", errs[1])
	}
	if !errors.Is(errs[0], ErrRemoteRead) {
		t.Errorf("healthy rank err = %v, want ErrRemoteRead", errs[0])
	}
}

// TestCollectiveLimitAgreement: one rank's request exceeds the ROMIO
// limit. Each of the four two-phase calls must fail in-band on every rank —
// the offender with ErrTooLarge, the others with ErrRemoteRead naming the
// offender — instead of the offender abandoning the rendezvous and leaving
// the others deadlocked in it (or in the view calls' Allgather).
func TestCollectiveLimitAgreement(t *testing.T) {
	calls := []struct {
		name string
		view bool
		call func(f *File, buf []byte) (int, error)
	}{
		{"ReadAtAll", false, func(f *File, b []byte) (int, error) { return f.ReadAtAll(b, 0) }},
		{"ReadViewAll", true, func(f *File, b []byte) (int, error) { return f.ReadViewAll(b, 0) }},
		{"WriteAtAll", false, func(f *File, b []byte) (int, error) { return f.WriteAtAll(b, 0) }},
		{"WriteViewAll", true, func(f *File, b []byte) (int, error) { return f.WriteViewAll(b, 0) }},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			_, pf := faultFS(t, 4096)
			pf.SetScale(1 << 30) // each real byte stands for 1 GiB
			errs := make([]error, 2)
			if err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
				f := Open(c, pf, Hints{})
				if tc.view {
					// Round-robin single bytes: rank r sees bytes r, r+2, ...
					ft, err := mpi.TypeVector(8, 1, 2, mpi.Byte)
					if err != nil {
						return err
					}
					if err := f.SetView(int64(c.Rank()), mpi.Byte, ft); err != nil {
						return err
					}
				}
				size := 1
				if c.Rank() == 1 {
					size = 8 // 8 GiB virtual: over the 2 GB single-call limit
				}
				_, errs[c.Rank()] = tc.call(f, make([]byte, size))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(errs[1], ErrTooLarge) {
				t.Errorf("offending rank err = %v, want ErrTooLarge", errs[1])
			}
			if !errors.Is(errs[0], ErrRemoteRead) || !strings.Contains(errs[0].Error(), "rank 1") {
				t.Errorf("healthy rank err = %v, want ErrRemoteRead naming rank 1", errs[0])
			}
		})
	}
}

// TestCollectiveWritePrefillFault: a collective write's aggregator prefills
// the holes of its slice with the file's bytes before writing the slice
// back. A permanent read fault there must fail the call and leave the file
// as it was, not write zeros over bytes the call never targeted; transient
// faults are retried like any other read. On NFS rank 0 is the one
// aggregator and rank 1 only sends; the write's closing agreement must
// still fail rank 1 with ErrRemoteRead naming rank 0, not return nil for a
// byte that was never written.
func TestCollectiveWritePrefillFault(t *testing.T) {
	offline := errors.New("pfs: OST offline")
	for _, tc := range []struct {
		name      string
		transient int // transient faults before reads succeed; -1: every read fails for good
	}{
		{"permanent", -1},
		{"two transient", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, pf := faultFS(t, 4096)
			want := make([]byte, 4096)
			if _, err := pf.ReadAt(want, 0); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			fires := 0
			fs.InjectReadFault(func(file string, off int64, n, stripe int) pfs.ReadFault {
				mu.Lock()
				defer mu.Unlock()
				switch {
				case tc.transient < 0:
					return pfs.ReadFault{Err: offline}
				case fires < tc.transient:
					fires++
					return pfs.ReadFault{Err: fmt.Errorf("OST hiccup: %w", pfs.ErrTransientRead)}
				}
				return pfs.ReadFault{}
			})
			errs := make([]error, 2)
			runErr := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
				f := Open(c, pf, Hints{})
				_, errs[c.Rank()] = f.WriteAtAll([]byte{0xAA}, 100+1000*int64(c.Rank()))
				return errs[c.Rank()]
			})
			fs.InjectReadFault(nil)
			if tc.transient < 0 {
				if !errors.Is(errs[0], offline) || runErr == nil {
					t.Errorf("aggregator err = %v, run err = %v; want the read fault on both", errs[0], runErr)
				}
				if !errors.Is(errs[1], ErrRemoteRead) || !strings.Contains(errs[1].Error(), "rank 0") {
					t.Errorf("sending rank err = %v, want ErrRemoteRead naming rank 0", errs[1])
				}
			} else {
				if runErr != nil || fires != tc.transient {
					t.Errorf("run err = %v after %d transient faults, want nil after %d", runErr, fires, tc.transient)
				}
				want[100], want[1100] = 0xAA, 0xAA
			}
			got := make([]byte, 4096)
			if _, err := pf.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("file byte %d = %#x, want %#x", i, got[i], want[i])
				}
			}
		})
	}
}
