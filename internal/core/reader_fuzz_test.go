package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/wkb"
	"repro/internal/wkt"
)

// fuzzMaxRecords caps how many records one fuzz input describes, so a
// mutated spec cannot grow a file past a few hundred KB.
const fuzzMaxRecords = 64

// fuzzFile decodes spec into the bytes of one vector file. Each record is an
// opcode byte and one argument byte:
//
//	0 POINT (i, arg)
//	1 LINESTRING of 2+arg vertices (up to ~4 KB framed)
//	2 POLYGON whose closed shell has 3+arg vertices
//	3 blank: arg%5 spaces in text, a zero-length record in binary
//	4 garbage: arg junk bytes — a text line, or a well-framed binary payload
//	5 raw: the next arg%16 spec bytes verbatim, unframed (may break framing)
//
// Text records are newline-terminated, except the last when len(spec) is
// odd. Vertices carry the record index, so distinct records differ.
func fuzzFile(spec []byte, binaryFraming bool) []byte {
	var out, payload []byte
	addRecord := func(g geom.Geometry) {
		if binaryFraming {
			out = wkb.AppendFramed(out, g)
			return
		}
		out = wkt.Append(out, g)
		out = append(out, '\n')
	}
	for i := 0; i+1 < len(spec) && i/2 < fuzzMaxRecords; i += 2 {
		op, arg, rec := spec[i]%6, int(spec[i+1]), i/2
		switch op {
		case 0:
			addRecord(geom.Point{X: float64(rec), Y: float64(arg)})
		case 1:
			pts := make([]geom.Point, 2+arg)
			for j := range pts {
				pts[j] = geom.Point{X: float64(rec), Y: float64(j)}
			}
			addRecord(&geom.LineString{Pts: pts})
		case 2:
			shell := make([]geom.Point, 3+arg, 4+arg)
			for j := range shell {
				shell[j] = geom.Point{X: float64(rec + j), Y: float64(j * j)}
			}
			addRecord(&geom.Polygon{Shell: append(shell, shell[0])})
		case 3, 4:
			payload = payload[:0]
			if op == 3 && !binaryFraming {
				payload = append(payload, strings.Repeat(" ", arg%5)...)
			} else if op == 4 {
				for j := 0; j < arg; j++ {
					payload = append(payload, byte('A'+(rec+j)%26))
				}
			}
			if binaryFraming {
				out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
				out = append(out, payload...)
			} else {
				out = append(append(out, payload...), '\n')
			}
		case 5:
			n := min(arg%16, len(spec)-i-2)
			out = append(out, spec[i+2:i+2+n]...)
			i += n
		}
	}
	if !binaryFraming && len(spec)%2 == 1 && len(out) > 0 && out[len(out)-1] == '\n' {
		out = out[:len(out)-1]
	}
	return out
}

// fuzzOracle is the sequential reference: split the whole file into records
// with no block boundaries at all and Parse each in file order. It returns
// the geometries (as fuzzKey), the number of malformed records, the first
// one's cause, and the longest record payload (what a halo must hold).
func fuzzOracle(data []byte, binaryFraming bool, p Parser) (keys []string, nerr int, first error, longest int) {
	bad := func(err error) {
		nerr++
		if first == nil {
			first = err
		}
	}
	one := func(rec []byte) {
		longest = max(longest, len(rec))
		if !binaryFraming && len(trimSpace(rec)) == 0 {
			return
		}
		g, err := p.Parse(rec)
		switch {
		case err != nil:
			bad(err)
		case g != nil:
			keys = append(keys, fuzzKey(g))
		}
	}
	if !binaryFraming {
		recs := bytes.Split(data, []byte{'\n'})
		for _, rec := range recs {
			one(rec)
		}
		return keys, nerr, first, longest
	}
	for len(data) > 0 {
		if len(data) < 4 || int64(len(data)) < 4+int64(binary.LittleEndian.Uint32(data)) {
			bad(ErrTruncatedRecord)
			break
		}
		n := 4 + int(binary.LittleEndian.Uint32(data))
		one(data[4:n])
		data = data[n:]
	}
	return keys, nerr, first, longest
}

// fuzzKey identifies a geometry bitwise (NaN payloads and -0 included).
func fuzzKey(g geom.Geometry) string { return fmt.Sprintf("%#v", g) }

// subMultiset reports whether every element of sub occurs in set at least
// as often as in sub.
func subMultiset(sub, set []string) bool {
	count := make(map[string]int, len(set))
	for _, s := range set {
		count[s]++
	}
	for _, s := range sub {
		if count[s]--; count[s] < 0 {
			return false
		}
	}
	return true
}

// isSubsequence reports whether sub appears in seq in order.
func isSubsequence(sub, seq []string) bool {
	j := 0
	for _, s := range sub {
		for j < len(seq) && seq[j] != s {
			j++
		}
		if j == len(seq) {
			return false
		}
		j++
	}
	return true
}

// FuzzReadPartition checks the parallel reader against a sequential split +
// Parse of the same file, over both framings, 1–5 ranks, any block size and
// halo, both strategies and both access levels, strict and SkipErrors. Every
// rank's geometries must appear in file order and the ranks together must
// hold exactly the oracle's; every rank errors exactly when the oracle
// does, the rank owning the first malformed record reporting its cause; and
// ErrGeometryTooLarge appears only for a text record longer than the halo
// read under Overlap. Binary reads ignore the strategy and the halo.
func FuzzReadPartition(f *testing.F) {
	// Seeds follow TestReadPartitionEquivalenceProperty and its WKB twin:
	// the same shape mix (points, 2–21-vertex lines, 3–40-vertex polygons),
	// block ranges and halos, drawn from the same generator seeds.
	for _, twin := range []struct {
		seed              int64
		binary            bool
		blockMin, halo    int
		records, maxRanks int
	}{{99, false, 512, 2 << 10, 60, 5}, {77, true, 64, 4 << 10, 60, 5}} {
		r := rand.New(rand.NewSource(twin.seed))
		for k := 0; k < 4; k++ {
			var spec []byte
			for n := 0; n < twin.records; n++ {
				switch r.Intn(3) {
				case 0:
					spec = append(spec, 0, byte(r.Intn(256)))
				case 1:
					spec = append(spec, 1, byte(r.Intn(20)))
				default:
					spec = append(spec, 2, byte(r.Intn(38)))
				}
			}
			f.Add(twin.binary, r.Intn(2) == 1, r.Intn(2) == 1, false,
				uint8(1+r.Intn(twin.maxRanks)), uint16(twin.blockMin+r.Intn(4096)), uint16(twin.halo), spec)
		}
	}
	// Hand seeds: a length header straddling 95-byte blocks, a record
	// spanning several blocks, zero-length / blank / garbage records, an
	// unframed tail, and a text record that overflows a small halo.
	lines := bytes.Repeat([]byte{1, 3}, 40)
	f.Add(true, false, false, false, uint8(4), uint16(95), uint16(128), lines)
	f.Add(true, true, true, false, uint8(3), uint16(64), uint16(64), []byte{0, 9, 1, 250, 0, 1})
	f.Add(true, false, false, true, uint8(2), uint16(256), uint16(0), []byte{0, 1, 3, 0, 4, 7, 0, 2, 5, 3, 200, 1, 0})
	f.Add(false, true, false, true, uint8(3), uint16(40), uint16(4), []byte{0, 1, 1, 90, 3, 2, 4, 9, 0, 5, 5})
	f.Add(false, true, true, false, uint8(2), uint16(16), uint16(4), []byte{0, 1, 1, 30, 0, 2})

	f.Fuzz(func(t *testing.T, binaryFraming, overlap, level1, skip bool, ranks uint8, block, halo uint16, spec []byte) {
		data := fuzzFile(spec, binaryFraming)
		if len(data) == 0 {
			return
		}
		n := 1 + int(ranks)%5
		opt := ReadOptions{BlockSize: int64(block % 4096), MaxGeomSize: int64(halo % 4096), SkipErrors: skip}
		// Floor the block so one run stays under 256 iterations.
		opt.BlockSize = max(opt.BlockSize, (int64(len(data))+int64(n)*256-1)/(int64(n)*256))
		if overlap {
			opt.Strategy = Overlap
		}
		if level1 {
			opt.Level = Level1
		}
		mk := func() Parser { return NewWKTParser() }
		if binaryFraming {
			opt.Framing = LengthPrefixed()
			mk = func() Parser { return NewWKBParser() }
		}
		haloLen := opt.MaxGeomSize
		if haloLen == 0 {
			haloLen = opt.BlockSize
		}

		fs, err := pfs.New(pfs.CometLustre())
		if err != nil {
			t.Fatal(err)
		}
		pf, err := fs.Create("fuzz.dat", 4, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		pf.Append(data)

		want, nerr, first, longest := fuzzOracle(data, binaryFraming, mk())
		got := make([][]string, n)
		stats := make([]ReadStats, n)
		errs := make([]error, n)
		var mu sync.Mutex
		// A rank that returns before the read settles its errors
		// collectively strands its peers: the runtime reports that as a
		// DeadlockError the moment the last running rank blocks or returns.
		_ = mpi.Run(cluster.Local(n), func(c *mpi.Comm) error {
			gs, st, err := ReadPartition(c, mpiio.Open(c, pf, mpiio.Hints{}), mk(), opt)
			keys := make([]string, len(gs))
			for i, g := range gs {
				keys[i] = fuzzKey(g)
			}
			mu.Lock()
			got[c.Rank()], stats[c.Rank()], errs[c.Rank()] = keys, st, err
			mu.Unlock()
			return nil
		})

		label := fmt.Sprintf("%d ranks, %+v, %d bytes", n, opt, len(data))
		// A halo overflow drops the record the halo cannot hold and counts
		// it as one error. Only a text record longer than the halo, read
		// under Overlap, can cause one.
		mayOverflow := !binaryFraming && overlap && int64(longest) > haloLen
		overflowed, failed, cause := false, 0, false
		for r, err := range errs {
			if err == nil {
				continue
			}
			failed++
			switch {
			case errors.As(err, new(*mpi.DeadlockError)):
				t.Fatalf("%s: rank %d: %v; a peer returned without settling its error collectively", label, r, err)
			case errors.Is(err, ErrGeometryTooLarge):
				if !mayOverflow {
					t.Fatalf("%s: rank %d: %v, but no record overflows the halo", label, r, err)
				}
				overflowed = true
			case errors.Is(err, ErrRemoteParse):
			case first != nil && (errors.Is(err, first) || strings.HasSuffix(err.Error(), first.Error())):
				cause = true
			case nerr == 0:
				t.Fatalf("%s: rank %d: %v; the oracle reads the file cleanly", label, r, err)
			}
		}
		records, counted := 0, 0
		var all []string
		for r := range got {
			if !isSubsequence(got[r], want) {
				t.Fatalf("%s: rank %d's geometries are not in file order or not in the file", label, r)
			}
			records += stats[r].Records
			counted += stats[r].Errors
			all = append(all, got[r]...)
		}
		if !subMultiset(all, want) {
			t.Fatalf("%s: a geometry is delivered twice", label)
		}
		if skip {
			if failed > 0 {
				t.Fatalf("%s: %d ranks failed under SkipErrors: %v", label, failed, errs)
			}
			if missing := len(want) - len(all); mayOverflow && missing >= 0 && counted-nerr >= missing {
				return // every record the halo dropped was counted
			}
			if len(all) != len(want) || counted != nerr || records != len(want) {
				t.Fatalf("%s: %d geometries, %d errors counted; the oracle has %d and %d", label, len(all), counted, len(want), nerr)
			}
			return
		}
		if failed != 0 && failed != n {
			t.Fatalf("%s: %d of %d ranks failed: %v", label, failed, n, errs)
		}
		if overflowed {
			return
		}
		if (failed > 0) != (nerr > 0) {
			t.Fatalf("%s: ranks failed=%d, oracle errors=%d (%v): %v", label, failed, nerr, first, errs)
		}
		if nerr > 0 {
			if !cause {
				t.Fatalf("%s: no rank reports the first malformed record's cause %v: %v", label, first, errs)
			}
			return
		}
		if len(all) != len(want) || records != len(want) {
			t.Fatalf("%s: %d geometries, the oracle has %d", label, len(all), len(want))
		}
	})
}
