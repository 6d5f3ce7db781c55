// Package mpiio reproduces the MPI-IO layer (ROMIO) the paper builds on:
// shared files opened by a communicator, independent and collective reads,
// explicit-offset access, file views built from derived datatypes, and the
// ROMIO-specific behaviours the paper measures — two-phase collective I/O
// with Lustre's aggregator-selection rule, `cb_nodes` / `cb_buffer_size`
// hints, multi-cycle collective buffering, and the 2 GB-per-call limit
// (paper §3, §5.1).
//
// The three access levels of the paper's Table 1 map to:
//
//	Level 0  contiguous + independent  ->  ReadAt / ReadAtSync
//	Level 1  contiguous + collective   ->  ReadAtAll
//	Level 3  non-contiguous+collective ->  SetView + ReadViewAll
//
// Collective writes (WriteAtAll, WriteViewAll) run the same two-phase
// engine as the collective reads: one plan rendezvous, one stripe-cyclic
// plan and one buffering-cycle loop per direction (collective.go).
package mpiio

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/arena"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
)

// ROMIOLimit is the maximum bytes one call may move per process: ROMIO's
// int-count limitation (paper §3). It applies to virtual (full-scale)
// bytes so scaled experiments hit it exactly where the paper would.
const ROMIOLimit = int64(1) << 31

// ErrTooLarge mirrors ROMIO failing a read or write over 2 GB in one call.
var ErrTooLarge = errors.New("mpiio: request exceeds ROMIO 2 GB single-operation limit")

// ErrRemoteRead is returned by coordinated calls (ReadAtSync and the
// collective reads and writes ReadAtAll, ReadViewAll, WriteAtAll and
// WriteViewAll) on ranks whose own part succeeded when another rank's
// failed or was rejected: the call agrees on failure in-band, so every rank
// returns an error naming the offending rank instead of the healthy ranks
// sailing on (or hanging). The failing rank returns its concrete error.
var ErrRemoteRead = errors.New("mpiio: I/O failed on another rank")

// readRetries bounds how many times a read absorbing pfs.ErrTransientRead
// faults is retried before the error is surfaced as permanent.
const readRetries = 3

// retryBackoff is the virtual-clock pause before the first retry, doubling
// each attempt. Charged to the clock, so retried runs stay deterministic.
const retryBackoff = 2e-3

// fillAt reads len(buf) bytes at off through the data path, absorbing short
// reads by continuing and transient faults (pfs.ErrTransientRead) with
// bounded retry-with-backoff. Returns the bytes read; io.EOF with the
// available prefix when the file ends inside the request.
func (f *File) fillAt(buf []byte, off int64) (int, error) {
	total := 0
	retries := 0
	backoff := retryBackoff
	for total < len(buf) {
		m, err := f.pf.ReadAt(buf[total:], off+int64(total))
		total += m
		if errors.Is(err, io.EOF) {
			return total, io.EOF
		}
		if err != nil {
			if errors.Is(err, pfs.ErrTransientRead) && retries < readRetries {
				retries++
				f.comm.Charge(simtime.IO, backoff)
				backoff *= 2
				continue
			}
			return total, fmt.Errorf("mpiio: rank %d file %q offset %d: read: %w",
				f.comm.Rank(), f.pf.Name(), off+int64(total), err)
		}
		if m == 0 {
			return total, fmt.Errorf("mpiio: rank %d file %q offset %d: read stalled",
				f.comm.Rank(), f.pf.Name(), off+int64(total))
		}
	}
	return total, nil
}

// Hints carries the MPI_Info knobs the paper tunes (§5.1.1).
type Hints struct {
	// CBNodes bounds the number of aggregator nodes for collective I/O
	// (hint cb_nodes). Zero lets the ROMIO driver decide.
	CBNodes int
	// CBBufferSize is the per-aggregator collective buffer in virtual
	// bytes (hint cb_buffer_size); larger collective reads proceed in
	// multiple cycles. Zero means the ROMIO default (16 MB).
	CBBufferSize int64
}

func (h Hints) bufferSize() int64 {
	if h.CBBufferSize > 0 {
		return h.CBBufferSize
	}
	return 16 << 20
}

// File is an MPI file handle: a striped pfs file opened across a
// communicator. It owns recycled collective scratch (aggBuf): slices
// carved from its buffers must not outlive the next collective call.
type File struct {
	comm *mpi.Comm
	pf   *pfs.File
	hint Hints
	view *view

	// Collective scratch, reused across buffering cycles and calls. A File
	// handle is held by a single rank (each rank opens its own), so no
	// synchronization is needed.
	aggBuf    []byte     // aggregator staging buffer (one cycle slice)
	sendParts [][][]byte // per-rank redistribution chunk lists
	recvSizes []int      // per-rank expected receive sizes
}

// scratch returns the collective exchange scratch sized for n ranks, wiped:
// empty chunk lists (their capacity kept, their references dropped) and
// zero receive sizes.
func (f *File) scratch(n int) ([][][]byte, []int) {
	if cap(f.sendParts) < n {
		f.sendParts = make([][][]byte, n)
		f.recvSizes = make([]int, n)
	}
	f.sendParts, f.recvSizes = f.sendParts[:n], f.recvSizes[:n]
	for i, chunks := range f.sendParts {
		clear(chunks)
		f.sendParts[i] = chunks[:0]
		f.recvSizes[i] = 0
	}
	return f.sendParts, f.recvSizes
}

// growAggBuf returns the aggregator staging buffer resized to n bytes,
// recycled under the shared arena grow-or-reuse policy.
func (f *File) growAggBuf(n int) []byte {
	f.aggBuf = arena.GrowBuf(f.aggBuf, n)
	return f.aggBuf
}

// Open associates a pfs file with a communicator. Collective operations
// must be called by every rank of the communicator.
func Open(comm *mpi.Comm, pf *pfs.File, hint Hints) *File {
	return &File{comm: comm, pf: pf, hint: hint}
}

// PFSFile exposes the underlying simulated file (for size/striping queries).
func (f *File) PFSFile() *pfs.File { return f.pf }

// Size returns the file's real stored size.
func (f *File) Size() int64 { return f.pf.Size() }

// node returns the compute node of this rank for injection accounting.
func (f *File) node() int { return f.comm.Config().NodeOf(f.comm.Rank()) }

// checkLimit enforces the ROMIO 2 GB single-call limit on virtual bytes.
func (f *File) checkLimit(realBytes int) error {
	if int64(float64(realBytes)*f.pf.Scale()) > ROMIOLimit {
		return fmt.Errorf("%w: %.1f GB requested", ErrTooLarge,
			float64(realBytes)*f.pf.Scale()/1e9)
	}
	return nil
}

// ReadAt is the independent explicit-offset read MPI_File_read_at
// (Level 0), modeled as an isolated request. Returns bytes read; a read
// extending past EOF returns the available prefix with io.EOF.
func (f *File) ReadAt(buf []byte, off int64) (int, error) {
	if err := f.checkLimit(len(buf)); err != nil {
		return 0, err
	}
	n, err := f.fillAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return n, err
	}
	dur, merr := f.pf.ReadTime(pfs.Request{Node: f.node(), Offset: off, Length: int64(n)})
	if merr != nil {
		return n, merr
	}
	f.comm.Charge(simtime.IO, dur)
	return n, err
}

// syncReq is one rank's contribution to the ReadAtSync rendezvous: its
// timing-model request plus whether its local read failed, so failure is
// agreed on in-band instead of one rank bailing out of the collective.
type syncReq struct {
	req    pfs.Request
	failed bool
}

// ReadAtSync has the semantics and cost model of independent reads (no
// aggregators, no redistribution — every rank's own request goes straight
// to the filesystem), but coordinates the *timing model* across ranks so
// concurrent iterations share OST bandwidth deterministically. All ranks
// must call it each iteration; inactive ranks pass an empty buf. This is
// how the Level-0 experiments of Figures 8-9 are measured: every rank
// spinning in the same read loop.
func (f *File) ReadAtSync(buf []byte, off int64) (int, error) {
	// Do the local work first and carry any failure into the rendezvous —
	// returning early here would strand the other ranks in WorldSync.
	var n int
	var localErr, eof error
	if err := f.checkLimit(len(buf)); err != nil {
		localErr = err
	} else {
		n, localErr = f.fillAt(buf, off)
		if errors.Is(localErr, io.EOF) {
			localErr, eof = nil, io.EOF
		}
		if len(buf) == 0 {
			n, eof = 0, nil
		}
	}
	in := syncReq{
		req:    pfs.Request{Node: f.node(), Offset: off, Length: int64(n)},
		failed: localErr != nil,
	}
	durAny, serr := f.comm.WorldSync("mpiio.indep:"+f.pf.Name(), in, func(inputs []any) []any {
		reqs := make([]pfs.Request, len(inputs))
		failed := -1
		for i, raw := range inputs {
			sr := raw.(syncReq)
			reqs[i] = sr.req
			if sr.failed && failed < 0 {
				failed = i
			}
		}
		outs := make([]any, len(inputs))
		if failed >= 0 {
			err := fmt.Errorf("%w: rank %d", ErrRemoteRead, failed)
			for i := range outs {
				outs[i] = err
			}
			return outs
		}
		durs, derr := f.pf.BatchTime(reqs)
		for i := range outs {
			if derr != nil {
				outs[i] = derr
			} else {
				outs[i] = durs[i]
			}
		}
		return outs
	})
	if serr != nil {
		return n, serr
	}
	if derr, ok := durAny.(error); ok {
		if localErr != nil {
			return n, localErr // this rank's own failure, concretely
		}
		return n, derr
	}
	f.comm.Charge(simtime.IO, durAny.(float64))
	return n, eof
}
