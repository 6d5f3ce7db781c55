package mpiio

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
)

// readPlan is the deterministic outcome of the request-exchange phase of a
// two-phase collective read or write: every rank receives the same plan and
// executes its role in it. File domains are stripe-cyclic, as in ROMIO's
// Lustre driver: aggregator k owns the stripes s with s % aggCount == k, so
// concurrent aggregators always address disjoint OST sets and never
// resonate on a single storage target.
type readPlan struct {
	reqs     []span // request hull per rank (EOF-clamped for reads)
	lo, hi   int64  // covered file range
	aggRanks []int  // aggregator ranks, one per selected aggregator node

	stripeReal      int64 // stripe width in real bytes (>= 1)
	s0              int64 // first stripe index overlapping [lo, hi)
	cycleLen        int64 // real bytes per aggregator per cycle
	cyclesPerStripe int   // buffering cycles needed to cover one stripe
	cycles          int   // total buffering cycles

	// aggTime[c][k] is the modeled read (or write) duration of aggregator
	// k in cycle c.
	aggTime [][]float64
	err     error
}

type span struct {
	off, length int64
}

// collReq is one rank's contribution to the plan rendezvous: its request
// hull plus whether the request was locally rejected (ROMIO limit), so
// rejection fails the collective in-band on every rank.
type collReq struct {
	req    span
	failed bool
}

func (s span) end() int64 { return s.off + s.length }

// overlap returns the intersection of two spans.
func (s span) overlap(o span) span {
	lo := max(s.off, o.off)
	hi := min(s.end(), o.end())
	if hi <= lo {
		return span{off: lo, length: 0}
	}
	return span{off: lo, length: hi - lo}
}

func clampSpan(s span, size int64) span {
	if s.off >= size {
		return span{off: size, length: 0}
	}
	if s.end() > size {
		s.length = size - s.off
	}
	return s
}

// hull returns the smallest span covering every span of rs.
func hull(rs []span) span {
	if len(rs) == 0 {
		return span{}
	}
	lo, hi := rs[0].off, rs[0].end()
	for _, r := range rs[1:] {
		lo = min(lo, r.off)
		hi = max(hi, r.end())
	}
	return span{off: lo, length: hi - lo}
}

// lustreAggregators reproduces the ROMIO-on-Lustre reader selection the
// paper reverse-engineers in §5.1.1: the reader count equals the node count
// when the stripe count is a multiple of the node count; otherwise it is
// the largest divisor of the stripe count not exceeding the node count
// (24 nodes reading from 64 OSTs get 16 readers; 48 nodes get 32).
func lustreAggregators(nodes, stripeCount int) int {
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

// aggregatorCount applies the filesystem-specific ROMIO default, bounded by
// the cb_nodes hint.
func (f *File) aggregatorCount() int {
	cfg := f.comm.Config()
	nodes := cfg.Nodes
	if f.hint.CBNodes > 0 && f.hint.CBNodes < nodes {
		nodes = f.hint.CBNodes
	}
	switch f.pf.Params().Kind {
	case pfs.Lustre:
		return lustreAggregators(nodes, f.pf.StripeCount())
	case pfs.NFS:
		return 1
	default: // GPFS: one aggregator per node
		return nodes
	}
}

// buildPlan computes the two-phase read plan from all ranks' requests,
// clamped to EOF first. Runs once (inside WorldSync) and is shared
// read-only by all ranks.
func (f *File) buildPlan(reqs []span) *readPlan {
	size := f.pf.Size()
	for i := range reqs {
		reqs[i] = clampSpan(reqs[i], size)
	}
	return f.planDomains(reqs)
}

// buildWritePlan is buildPlan for writes: the file need not contain the
// target range yet, so requests are validated instead of clamped.
func (f *File) buildWritePlan(reqs []span) *readPlan {
	for _, r := range reqs {
		if r.length < 0 || r.off < 0 {
			return &readPlan{reqs: reqs, err: fmt.Errorf("mpiio: invalid write request %+v", r)}
		}
	}
	return f.planDomains(reqs)
}

// planDomains carves the hull of the (clamped or validated) requests into
// stripe-cyclic aggregator domains and buffering cycles, and models each
// cycle's aggregator batch.
func (f *File) planDomains(reqs []span) *readPlan {
	p := &readPlan{reqs: reqs}
	lo, hi := int64(-1), int64(0)
	for _, r := range reqs {
		if r.length == 0 {
			continue
		}
		if lo < 0 || r.off < lo {
			lo = r.off
		}
		hi = max(hi, r.end())
	}
	if lo < 0 { // nothing to move
		return p
	}
	p.lo, p.hi = lo, hi

	cfg := f.comm.Config()
	aggCount := f.aggregatorCount()
	// StripeSize is virtual; domains are carved in real bytes.
	p.stripeReal = max(int64(float64(f.pf.StripeSize())/f.pf.Scale()), 1)
	p.s0 = lo / p.stripeReal
	for k := 0; k < aggCount; k++ {
		node := k * cfg.Nodes / aggCount
		p.aggRanks = append(p.aggRanks, node*cfg.RanksPerNode)
	}

	// Buffering cycles: cb_buffer_size is in virtual bytes. Every cycle an
	// aggregator moves at most one buffer's worth of one of its stripes.
	bufReal := max(int64(float64(f.hint.bufferSize())/f.pf.Scale()), 1)
	p.cycleLen = min(bufReal, p.stripeReal)
	p.cyclesPerStripe = int((p.stripeReal + p.cycleLen - 1) / p.cycleLen)
	totalStripes := (hi-1)/p.stripeReal - p.s0 + 1
	// The most stripes any aggregator owns under the cyclic assignment.
	maxStripes := int((totalStripes + int64(aggCount) - 1) / int64(aggCount))
	p.cycles = maxStripes * p.cyclesPerStripe

	for c := 0; c < p.cycles; c++ {
		var batch []pfs.Request
		var who []int
		for k := 0; k < aggCount; k++ {
			s := p.cycleSlice(k, c)
			if s.length == 0 {
				continue
			}
			batch = append(batch, pfs.Request{
				Node:   cfg.NodeOf(p.aggRanks[k]),
				Offset: s.off,
				Length: s.length,
			})
			who = append(who, k)
		}
		times := make([]float64, aggCount)
		if len(batch) > 0 {
			durs, err := f.pf.BatchTime(batch)
			if err != nil {
				p.err = err
				return p
			}
			for i, k := range who {
				times[k] = durs[i]
			}
		}
		p.aggTime = append(p.aggTime, times)
	}
	return p
}

// cycleSlice returns the file range aggregator k covers in cycle c: a
// buffer-sized piece of its (c / cyclesPerStripe)-th owned stripe, clamped
// to the covered range [lo, hi).
func (p *readPlan) cycleSlice(k, c int) span {
	aggCount := len(p.aggRanks)
	j := int64(c / p.cyclesPerStripe) // which of my stripes
	r := int64(c % p.cyclesPerStripe) // which buffer within it
	first := p.s0 + ((int64(k)-p.s0)%int64(aggCount)+int64(aggCount))%int64(aggCount)
	s := first + j*int64(aggCount)
	lo := s*p.stripeReal + r*p.cycleLen
	hi := min((s+1)*p.stripeReal, lo+p.cycleLen)
	lo = max(lo, p.lo)
	hi = min(hi, p.hi)
	if lo >= hi {
		return span{off: p.hi, length: 0}
	}
	return span{off: lo, length: hi - lo}
}

// aggIndex returns which aggregator this rank is, or -1.
func (p *readPlan) aggIndex(rank int) int {
	for k, r := range p.aggRanks {
		if r == rank {
			return k
		}
	}
	return -1
}

// ReadAtAll is the collective explicit-offset read MPI_File_read_at_all
// (Level 1): two-phase I/O in which only the selected aggregators touch the
// filesystem and then redistribute data with a personalized all-to-all
// exchange. Every rank of the communicator must call it (inactive ranks
// pass an empty buffer), as MPI requires.
func (f *File) ReadAtAll(buf []byte, off int64) (int, error) {
	return f.twoPhase("mpiio.coll:", buf, []span{{off: off, length: int64(len(buf))}}, false, false)
}

// ReadViewAll is the non-contiguous collective read of Level 3
// (MPI_File_read_all under a file view): each rank reads len(buf) visible
// bytes starting at visible offset viewOff of its own view. Two-phase I/O
// with data sieving: aggregators read contiguous domain slices (holes
// included) and redistribute only the requested pieces — the extra sieved
// bytes and the denser exchange are exactly why the paper finds
// non-contiguous access slower and very block-size sensitive (Figures
// 15-16).
func (f *File) ReadViewAll(buf []byte, viewOff int64) (int, error) {
	return f.twoPhase("mpiio.view:", buf, f.view.ranges(viewOff, int64(len(buf))), true, false)
}

// WriteAtAll is the collective explicit-offset write MPI_File_write_at_all
// (the output side of §4.1): two-phase I/O in which every rank ships its
// data to the stripe-cyclic aggregators, which assemble their file-domain
// slices and perform the physical writes. Every rank of the communicator
// must call it; ranks with nothing to write pass an empty buffer. Ranks'
// write ranges must not overlap (the usual MPI contract for consistent
// collective writes).
func (f *File) WriteAtAll(buf []byte, off int64) (int, error) {
	return f.twoPhase("mpiio.collw:", buf, []span{{off: off, length: int64(len(buf))}}, false, true)
}

// WriteViewAll is the non-contiguous collective write (the Figure 4 output
// pattern: distributed data written to one file in global layout order):
// each rank writes len(buf) visible bytes of its view starting at visible
// offset viewOff. The view pieces of all ranks must not overlap.
func (f *File) WriteViewAll(buf []byte, viewOff int64) (int, error) {
	return f.twoPhase("mpiio.vieww:", buf, f.view.ranges(viewOff, int64(len(buf))), true, true)
}

// twoPhase is the engine behind the four collective calls. mine is this
// rank's request as file spans, in the order their bytes sit in buf: one
// span for the *AtAll calls, the view's ranges for the *ViewAll calls.
// listed marks Level 3 access, whose flattened offset lists cost real
// work: every rank's list travels through an Allgather, and aggregators
// pay a list scan per cycle and a round trip per piece.
func (f *File) twoPhase(key string, buf []byte, mine []span, listed, write bool) (int, error) {
	// A locally rejected request still joins the rendezvous — bailing out
	// before it would strand the other ranks — and fails the whole
	// collective in-band via the shared plan.
	limitErr := f.checkLimit(len(buf))
	plan, err := f.rendezvous(key, hull(mine), limitErr, write)
	if err != nil {
		return 0, err
	}
	spans := make([][]span, f.comm.Size())
	if listed {
		all, err := f.comm.Allgather(encodeSpans(mine))
		if err != nil {
			return 0, err
		}
		for r, e := range all {
			spans[r] = decodeSpans(e)
		}
	} else {
		for r := range spans {
			spans[r] = plan.reqs[r : r+1]
		}
	}
	if write {
		return f.writeCycles(plan, buf, spans, listed)
	}
	return f.readCycles(plan, buf, spans, listed)
}

// rendezvous agrees on the plan: each rank contributes its request hull
// and whether it rejected its own request. One rejection fails the call on
// every rank — the offender with its concrete error, the others with
// ErrRemoteRead naming it.
func (f *File) rendezvous(key string, req span, limitErr error, write bool) (*readPlan, error) {
	key += f.pf.Name()
	in := collReq{req: req, failed: limitErr != nil}
	planAny, err := f.comm.WorldSync(key, in, func(inputs []any) []any {
		reqs := make([]span, len(inputs))
		failed := -1
		for i, in := range inputs {
			cr := in.(collReq)
			reqs[i] = cr.req
			if cr.failed && failed < 0 {
				failed = i
			}
		}
		var plan *readPlan
		switch {
		case failed >= 0:
			plan = &readPlan{err: fmt.Errorf("%w: rank %d rejected its request (%s)", ErrRemoteRead, failed, key)}
		case write:
			plan = f.buildWritePlan(reqs)
		default:
			plan = f.buildPlan(reqs)
		}
		outs := make([]any, len(inputs))
		for i := range outs {
			outs[i] = plan
		}
		return outs
	})
	if err != nil {
		return nil, err
	}
	plan := planAny.(*readPlan)
	if plan.err != nil {
		if limitErr != nil {
			return nil, limitErr // this rank's own rejection, concretely
		}
		return nil, plan.err
	}
	return plan, nil
}

// listScan returns the Level 3 aggregation charge of one cycle: a scan of
// every rank's flattened offset list. One real list entry stands for
// `scale` full-size entries.
func (f *File) listScan(spans [][]span) float64 {
	entries := 0
	for _, rs := range spans {
		entries += len(rs)
	}
	return float64(entries) * f.pf.Scale() * listScanCost
}

// pieceCost is the Level 3 charge for the pieces an aggregator serves in
// one cycle: ROMIO abandons hole sieving for sparse requests, so each piece
// costs a filesystem round trip — the block-size sensitivity of Figure 16.
// One real piece stands for `scale` full-size pieces.
func (f *File) pieceCost(pieces int) float64 {
	return float64(pieces) * f.pf.Scale() * f.pf.Params().ChunkLatency
}

// readCycles runs the read side of the plan: each cycle the aggregators
// read their slice (holes included — data sieving) into the recycled
// staging buffer and send every rank the pieces of its spans inside it,
// as chunk lists; each rank places the pieces it receives at their
// visible positions in buf. Returns the bytes requested before EOF.
func (f *File) readCycles(plan *readPlan, buf []byte, spans [][]span, listed bool) (int, error) {
	rank, nRanks := f.comm.Rank(), f.comm.Size()
	myAgg := plan.aggIndex(rank)
	scan := f.listScan(spans)
	n := 0
	for _, s := range spans[rank] {
		n += int(clampSpan(s, f.pf.Size()).length)
	}
	for c := 0; c < plan.cycles; c++ {
		var slice span
		var data []byte
		if myAgg >= 0 {
			slice = plan.cycleSlice(myAgg, c)
			if slice.length > 0 {
				data = f.growAggBuf(int(slice.length))
				// A permanent read failure here (after the shared plan was
				// agreed) surfaces on this rank only; the world abort then
				// releases the peers from the exchange with ErrAborted —
				// best-effort teardown rather than in-band agreement, but
				// still: every rank errors, nobody hangs.
				if _, rerr := f.fillAt(data, slice.off); rerr != nil && !errors.Is(rerr, io.EOF) {
					return 0, rerr
				}
				f.comm.Charge(simtime.IO, plan.aggTime[c][myAgg])
			}
		}
		// The send chunk lists alias the staging buffer; every receiver
		// joins its block into a copy of its own before AlltoallvChunks
		// returns, so the next cycle may refill it.
		send, recvSizes := f.scratch(nRanks)
		if myAgg >= 0 && slice.length > 0 {
			if listed {
				// Every cycle the aggregator rescans the flattened offset
				// lists of all ranks to find the pieces inside its slice —
				// the O(cycles x pieces) work of Figure 15.
				f.comm.Charge(simtime.Aggregate, scan)
			}
			pieces := 0
			for r, rs := range spans {
				for _, s := range rs {
					if ov := slice.overlap(s); ov.length > 0 {
						start := ov.off - slice.off
						send[r] = append(send[r], data[start:start+ov.length])
						pieces++
					}
				}
			}
			if listed && pieces > 1 {
				f.comm.Charge(simtime.Aggregate, f.pieceCost(pieces))
			}
		}
		for k, ar := range plan.aggRanks {
			sl := plan.cycleSlice(k, c)
			for _, s := range spans[rank] {
				recvSizes[ar] += int(sl.overlap(s).length)
			}
		}
		// An aggregator whose fillAt read failed returned above: it has no
		// slice to serve, and the world abort releases the peers from this
		// exchange with ErrAborted.
		parts := make([][]byte, nRanks)
		if err := f.comm.AlltoallvChunks(send, recvSizes, mpi.JoinInto(parts)); err != nil {
			return 0, err
		}
		// Walk my spans against each aggregator's slice in the order the
		// aggregator packed them.
		for k, ar := range plan.aggRanks {
			sl := plan.cycleSlice(k, c)
			cursor, visPos := 0, int64(0)
			for _, s := range spans[rank] {
				if ov := sl.overlap(s); ov.length > 0 {
					at := visPos + ov.off - s.off
					cursor += copy(buf[at:at+ov.length], parts[ar][cursor:])
				}
				visPos += s.length
			}
		}
	}
	if n < len(buf) {
		return n, io.EOF
	}
	return n, nil
}

// writeCycles runs the write side of the plan: each cycle every rank sends
// each aggregator the pieces of its buffer inside that aggregator's slice,
// as chunk lists; the aggregators assemble the slice in the recycled
// staging buffer — read-modify-write where the requests leave holes
// (ROMIO's data-sieving write) — and write it. An aggregator whose prefill
// read or write fails stops touching the file but keeps joining every
// cycle's exchange, and a clock-free rendezvous after the last cycle agrees
// the outcome: the failing rank returns its error and every other rank
// ErrRemoteRead naming it — a rank that only sends would otherwise return
// nil for bytes that were never written.
func (f *File) writeCycles(plan *readPlan, buf []byte, spans [][]span, listed bool) (int, error) {
	rank, nRanks := f.comm.Rank(), f.comm.Size()
	myAgg := plan.aggIndex(rank)
	scan := f.listScan(spans)
	var failed error
	for c := 0; c < plan.cycles; c++ {
		send, recvSizes := f.scratch(nRanks)
		for k, ar := range plan.aggRanks {
			sl := plan.cycleSlice(k, c)
			visPos := int64(0)
			for _, s := range spans[rank] {
				if ov := sl.overlap(s); ov.length > 0 {
					at := visPos + ov.off - s.off
					send[ar] = append(send[ar], buf[at:at+ov.length])
				}
				visPos += s.length
			}
		}
		var slice span
		var data []byte
		if myAgg >= 0 {
			slice = plan.cycleSlice(myAgg, c)
			for r, rs := range spans {
				for _, s := range rs {
					recvSizes[r] += int(slice.overlap(s).length)
				}
			}
			if slice.length > 0 && failed == nil {
				// Prefill the holes with the file's bytes before the
				// exchange (the send chunks alias buf, not the staging
				// buffer); past EOF (a write that extends the file) the
				// error is io.EOF and the holes stay zero.
				data = f.growAggBuf(int(slice.length))
				m, rerr := f.fillAt(data, slice.off)
				if rerr != nil && !errors.Is(rerr, io.EOF) {
					failed = rerr
				}
				clear(data[m:])
			}
		}
		parts := make([][]byte, nRanks)
		if err := f.comm.AlltoallvChunks(send, recvSizes, mpi.JoinInto(parts)); err != nil {
			return 0, err
		}
		if myAgg < 0 || slice.length == 0 || failed != nil {
			continue
		}
		if listed {
			f.comm.Charge(simtime.Aggregate, scan)
		}
		pieces := 0
		for r, rs := range spans {
			cursor := 0
			for _, s := range rs {
				if ov := slice.overlap(s); ov.length > 0 {
					at := ov.off - slice.off
					cursor += copy(data[at:at+ov.length], parts[r][cursor:])
					pieces++
				}
			}
		}
		if listed && pieces > 1 {
			f.comm.Charge(simtime.Aggregate, f.pieceCost(pieces))
		}
		if _, werr := f.pf.WriteAt(data, slice.off); werr != nil {
			failed = werr
			continue
		}
		f.comm.Charge(simtime.IO, plan.aggTime[c][myAgg])
	}
	outAny, err := f.comm.WorldSync("mpiio.write.done:"+f.pf.Name(), failed != nil, func(inputs []any) []any {
		outs := make([]any, len(inputs))
		for i, in := range inputs {
			if in.(bool) {
				for j := range outs {
					outs[j] = fmt.Errorf("%w: rank %d failed its collective write slice", ErrRemoteRead, i)
				}
				break
			}
		}
		return outs
	})
	switch {
	case err != nil:
		return 0, err
	case failed != nil:
		return 0, failed
	case outAny != nil:
		return 0, outAny.(error)
	}
	return len(buf), nil
}
