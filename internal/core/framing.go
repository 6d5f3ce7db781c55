package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncatedRecord reports that a file ends inside a length-prefixed
// record: the trailing bytes announce more payload than the file holds.
// Unlike delimited text — where the final record is legitimately terminated
// by end-of-file instead of a delimiter — a partial binary record is always
// data loss, so it is surfaced (or, under SkipErrors, counted) instead of
// silently dropped.
var ErrTruncatedRecord = errors.New("core: file ends inside a length-prefixed record")

// Framing describes how a vector file is divided into records: how record
// boundaries are located in the byte stream and which bytes of each framed
// record form the payload handed to the Parser. Two framings are provided —
// Delimited (separator-terminated text, the default) and LengthPrefixed
// (u32 payload length + WKB payload binary records, paper §4.1's
// variable-length binary experiments). The interface is sealed: its methods
// are unexported because the reader picks its boundary-repair protocol from
// a framing property (self-synchronization, below) that arbitrary
// implementations cannot declare.
type Framing interface {
	fmt.Stringer

	// selfSync reports whether record boundaries can be recovered from an
	// arbitrary position in the stream. Delimited text is
	// self-synchronizing: scanning for the next separator resynchronizes
	// from anywhere, so either strategy applies. Length-prefixed framing is
	// not — boundaries are only reachable by hopping headers from a known
	// record start — so every such read runs readMessageChain (reader.go),
	// whatever the Strategy.
	selfSync() bool

	// lastBoundary returns the offset just past the end of the last
	// complete record in block, or -1 when no boundary can be located.
	// Only self-synchronizing framings can implement it.
	lastBoundary(block []byte) int

	// firstBoundary returns the offset just past the first record
	// terminator in block, or -1. Only self-synchronizing framings can
	// implement it.
	firstBoundary(block []byte) int

	// next extracts the first record of data, which must begin at a record
	// boundary: the parser-visible payload and the framed size consumed.
	// ok is false when data does not hold one complete record.
	next(data []byte) (payload []byte, framed int, ok bool)

	// eofTail classifies bytes left over at end of file: the final
	// record's payload for framings where EOF is a legitimate terminator,
	// or an error where a partial record means truncation. emit is false
	// when the leftover should be ignored.
	eofTail(data []byte) (payload []byte, emit bool, err error)

	// blank reports whether a record payload carries nothing and should be
	// skipped without parsing. Text framing skips whitespace-only records
	// (blank lines are routine); binary framing skips nothing — a
	// zero-length payload is never written by the encoder, so it must
	// reach the parser and fail like any other corruption instead of
	// vanishing silently.
	blank(rec []byte) bool
}

// Delimited returns the framing of delimiter-separated text records — the
// newline-delimited WKT layout of the paper's primary datasets. A zero
// delimiter means '\n'. This is what ReadOptions uses when no Framing is
// set.
func Delimited(delim byte) Framing {
	if delim == 0 {
		delim = '\n'
	}
	return delimited{delim}
}

// LengthPrefixed returns the framing of length-prefixed binary records:
// each record is a little-endian u32 payload length followed by that many
// payload bytes (WKB, written by wkb.AppendFramed and parsed by
// WKBParser). A record may be any length: reads under this framing ignore
// ReadOptions.Strategy and MaxGeomSize (see ReadPartition).
func LengthPrefixed() Framing { return lengthPrefixed{} }

type delimited struct{ delim byte }

func (d delimited) String() string { return "delimited" }
func (d delimited) selfSync() bool { return true }

func (d delimited) lastBoundary(block []byte) int {
	if i := bytes.LastIndexByte(block, d.delim); i >= 0 {
		return i + 1
	}
	return -1
}

func (d delimited) firstBoundary(block []byte) int {
	if i := bytes.IndexByte(block, d.delim); i >= 0 {
		return i + 1
	}
	return -1
}

func (d delimited) next(data []byte) ([]byte, int, bool) {
	i := bytes.IndexByte(data, d.delim)
	if i < 0 {
		return nil, 0, false
	}
	return data[:i], i + 1, true
}

// eofTail: end-of-file terminates the final text record (files without a
// trailing newline are routine).
func (d delimited) eofTail(data []byte) ([]byte, bool, error) { return data, true, nil }

func (d delimited) blank(rec []byte) bool { return len(trimSpace(rec)) == 0 }

// frameHeader is the byte size of the u32 length prefix
// (wkb.FrameHeaderSize; duplicated to keep the framing free of the wkb
// dependency — the payload format is the Parser's business, not the
// framing's).
const frameHeader = 4

type lengthPrefixed struct{}

func (lengthPrefixed) String() string { return "length-prefixed" }
func (lengthPrefixed) selfSync() bool { return false }

// lastBoundary / firstBoundary: a length header is indistinguishable from
// payload bytes, so boundaries cannot be recovered without phase.
func (lengthPrefixed) lastBoundary([]byte) int  { return -1 }
func (lengthPrefixed) firstBoundary([]byte) int { return -1 }

// framedSize returns the whole framed size announced by the header at the
// front of hdr, in int64 so a corrupt ~4 GiB length cannot wrap on 32-bit
// GOARCHes.
func framedSize(hdr []byte) int64 {
	return frameHeader + int64(binary.LittleEndian.Uint32(hdr))
}

// splitFramed returns the length of the longest prefix of data that is a
// whole number of length-prefixed records. data must begin at a record
// boundary.
func splitFramed(data []byte) int {
	pos := 0
	for pos+frameHeader <= len(data) {
		size := framedSize(data[pos:])
		if int64(pos)+size > int64(len(data)) {
			break
		}
		pos += int(size)
	}
	return pos
}

func (lengthPrefixed) next(data []byte) ([]byte, int, bool) {
	if len(data) < frameHeader {
		return nil, 0, false
	}
	size := framedSize(data)
	if size > int64(len(data)) {
		return nil, 0, false
	}
	return data[frameHeader:size], int(size), true
}

// continueFramed returns how many leading bytes of data complete the
// length-prefixed record whose first len(prefix) bytes sit in prefix.
// prefix begins at a record boundary and holds no complete record — it may
// be as short as a sliver of the length header. ok is false when
// prefix+data still does not complete the record.
func continueFramed(prefix, data []byte) (int, bool) {
	if len(prefix)+len(data) < frameHeader {
		return 0, false
	}
	// The length header itself may straddle the prefix/data boundary:
	// reassemble its four bytes from both sides.
	var hdr [frameHeader]byte
	m := copy(hdr[:], prefix)
	copy(hdr[m:], data)
	size := framedSize(hdr[:])
	if int64(len(prefix))+int64(len(data)) < size {
		return 0, false
	}
	n := size - int64(len(prefix))
	if n < 0 {
		// Unreachable when the prefix contract (no complete record) holds;
		// clamp so a violation cannot turn into a negative slice bound.
		n = 0
	}
	return int(n), true
}

// splitRegion returns the first record boundary at or past target in data,
// or len(data) when no later boundary exists (a trailing EOF-settled
// fragment, if any, stays attached to the final chunk). This is how the text
// parse workers shard a region into batches without parsing it: fr is
// self-synchronizing, since only text framings start a worker pool.
func splitRegion(fr Framing, data []byte, target int) int {
	if target >= len(data) {
		return len(data)
	}
	if fb := fr.firstBoundary(data[target:]); fb >= 0 {
		return target + fb
	}
	return len(data)
}

func (lengthPrefixed) eofTail(data []byte) ([]byte, bool, error) {
	if len(data) == 0 {
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("%w (%d trailing bytes)", ErrTruncatedRecord, len(data))
}

func (lengthPrefixed) blank([]byte) bool { return false }
