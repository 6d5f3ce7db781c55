package mpiio

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mpi"
)

// listScanCost is the per-entry cost of one traversal of a flattened
// offset-length list during two-phase aggregation (seconds per entry).
const listScanCost = 150e-9

// view is a rank's file view: starting at displacement disp, tiles of
// filetype repeat; only the filetype's blocks are visible.
type view struct {
	disp     int64
	etype    *mpi.Datatype
	filetype *mpi.Datatype
}

// SetView installs a file view (MPI_File_set_view). The filetype must be
// built from whole etypes; each rank may set a different view (the usual
// round-robin declustering gives every rank a shifted filetype, Figure 4).
func (f *File) SetView(disp int64, etype, filetype *mpi.Datatype) error {
	if disp < 0 {
		return fmt.Errorf("mpiio: negative view displacement %d", disp)
	}
	if etype.Size() == 0 || filetype.Size()%etype.Size() != 0 {
		return fmt.Errorf("mpiio: filetype %s (%d bytes) is not a whole number of etypes %s (%d bytes)",
			filetype.Name(), filetype.Size(), etype.Name(), etype.Size())
	}
	f.view = &view{disp: disp, etype: etype, filetype: filetype}
	return nil
}

// ClearView restores the default (contiguous byte) view.
func (f *File) ClearView() { f.view = nil }

// ranges maps [viewOff, viewOff+length) in visible bytes to file spans,
// merging adjacent spans. A nil view is the identity mapping.
func (v *view) ranges(viewOff, length int64) []span {
	if v == nil {
		return []span{{off: viewOff, length: length}}
	}
	var out []span
	addRange := func(off, n int64) {
		if n <= 0 {
			return
		}
		if len(out) > 0 && out[len(out)-1].end() == off {
			out[len(out)-1].length += n
			return
		}
		out = append(out, span{off: off, length: n})
	}
	tileVisible := int64(v.filetype.Size())
	extent := int64(v.filetype.Extent())
	blocks := v.filetype.Blocks()

	tile := viewOff / tileVisible
	rem := viewOff % tileVisible
	for length > 0 {
		tileBase := v.disp + tile*extent
		for _, b := range blocks {
			if length <= 0 {
				break
			}
			bl := int64(b.Len)
			if rem >= bl {
				rem -= bl
				continue
			}
			take := min(bl-rem, length)
			addRange(tileBase+int64(b.Off)+rem, take)
			length -= take
			rem = 0
		}
		tile++
	}
	return out
}

// encodeSpans serializes spans as 16-byte little-endian pairs.
func encodeSpans(spans []span) []byte {
	out := make([]byte, 0, len(spans)*16)
	for _, s := range spans {
		out = binary.LittleEndian.AppendUint64(out, uint64(s.off))
		out = binary.LittleEndian.AppendUint64(out, uint64(s.length))
	}
	return out
}

func decodeSpans(b []byte) []span {
	out := make([]span, 0, len(b)/16)
	for i := 0; i+16 <= len(b); i += 16 {
		out = append(out, span{off: int64(binary.LittleEndian.Uint64(b[i:])), length: int64(binary.LittleEndian.Uint64(b[i+8:]))})
	}
	return out
}
