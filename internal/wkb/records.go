package wkb

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Fixed-size binary record layouts. The paper (§4.1) preprocesses files of
// fixed-length spatial types — points, lines (segments) and MBRs — into
// binary so MPI-IO can read them directly as datatypes with regular access;
// the MBR layout backs the Figure 12 and Figure 15 experiments.

// RectRecordSize is the byte size of one MBR record: 4 little-endian doubles
// (MinX, MinY, MaxX, MaxY), exactly the paper's MPI_RECT derived type.
const RectRecordSize = 32

// AppendRect appends one MBR record.
func AppendRect(dst []byte, e geom.Envelope) []byte {
	dst = appendF64(dst, e.MinX)
	dst = appendF64(dst, e.MinY)
	dst = appendF64(dst, e.MaxX)
	return appendF64(dst, e.MaxY)
}

// DecodeRect decodes one MBR record from the front of buf.
func DecodeRect(buf []byte) (geom.Envelope, error) {
	if len(buf) < RectRecordSize {
		return geom.Envelope{}, ErrTruncated
	}
	return geom.Envelope{
		MinX: f64At(buf, 0),
		MinY: f64At(buf, 8),
		MaxX: f64At(buf, 16),
		MaxY: f64At(buf, 24),
	}, nil
}

// DecodeRects decodes the MBR records in buf. A trailing partial record is
// an error: a binary file whose length is not a whole number of records has
// been truncated, and silently dropping the tail would be silent data loss.
func DecodeRects(buf []byte) ([]geom.Envelope, error) {
	if len(buf)%RectRecordSize != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d MBR records",
			ErrTruncated, len(buf)%RectRecordSize, len(buf)/RectRecordSize)
	}
	n := len(buf) / RectRecordSize
	out := make([]geom.Envelope, 0, n)
	for i := 0; i < n; i++ {
		e, err := DecodeRect(buf[i*RectRecordSize:])
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func f64At(buf []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}

// Length-prefixed variable-size records: the framing of the binary WKB
// ingest path (core.LengthPrefixed). Each record is a little-endian u32
// payload length followed by that many bytes of WKB.

// FrameHeaderSize is the byte size of the length prefix of one
// length-prefixed WKB record.
const FrameHeaderSize = 4

// AppendFramed appends one length-prefixed WKB record: the u32 payload
// length, then the WKB encoding of g. A payload the u32 header cannot
// express (≥ 4 GiB, ~2^28 vertices) panics rather than wrapping into a
// silently corrupt header — the writer-side mirror of the decoder's
// 64-bit size guards.
func AppendFramed(dst []byte, g geom.Geometry) []byte {
	dst = appendU32(dst, 0)
	mark := len(dst)
	dst = Append(dst, g)
	n := len(dst) - mark
	if int64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("wkb: framed record payload of %d bytes exceeds the u32 length header", n))
	}
	binary.LittleEndian.PutUint32(dst[mark-FrameHeaderSize:], uint32(n))
	return dst
}

// DecodeFramed decodes one length-prefixed WKB record from the front of buf
// and returns the geometry with the total framed size consumed (header
// included). The announced length is untrusted: it is bounded against the
// buffer in 64-bit arithmetic and must be consumed exactly by the payload.
func DecodeFramed(buf []byte) (geom.Geometry, int, error) {
	if len(buf) < FrameHeaderSize {
		return nil, 0, ErrTruncated
	}
	total := int64(FrameHeaderSize) + int64(binary.LittleEndian.Uint32(buf))
	if total > int64(len(buf)) {
		return nil, 0, ErrTruncated
	}
	g, used, err := Decode(buf[FrameHeaderSize:total])
	if err != nil {
		return nil, 0, err
	}
	if int64(used) != total-FrameHeaderSize {
		return nil, 0, fmt.Errorf("wkb: framed record has %d bytes of trailing garbage", total-FrameHeaderSize-int64(used))
	}
	return g, int(total), nil
}
