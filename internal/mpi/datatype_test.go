package mpi

import (
	"bytes"
	"testing"
)

// pack gathers count instances of dt, laid out at extent spacing in src,
// into a dense buffer, block by block: the oracle the tests read dt's
// typemap through.
func pack(dt *Datatype, src []byte, count int) []byte {
	var out []byte
	for i := 0; i < count; i++ {
		for _, b := range dt.Blocks() {
			off := i*dt.Extent() + b.Off
			out = append(out, src[off:off+b.Len]...)
		}
	}
	return out
}

// unpack scatters pack's output back into dst at extent spacing.
func unpack(dt *Datatype, dst, packed []byte, count int) {
	r := 0
	for i := 0; i < count; i++ {
		for _, b := range dt.Blocks() {
			off := i*dt.Extent() + b.Off
			r += copy(dst[off:off+b.Len], packed[r:])
		}
	}
}

func TestPredefinedTypes(t *testing.T) {
	cases := []struct {
		dt   *Datatype
		size int
	}{
		{Byte, 1}, {Char, 1}, {Int32, 4}, {Int64, 8}, {Float64, 8},
	}
	for _, c := range cases {
		if c.dt.Size() != c.size || c.dt.Extent() != c.size {
			t.Errorf("%s: size=%d extent=%d, want %d", c.dt.Name(), c.dt.Size(), c.dt.Extent(), c.size)
		}
		if !c.dt.Contiguous() {
			t.Errorf("%s should be contiguous", c.dt.Name())
		}
	}
}

func TestTypeContiguous(t *testing.T) {
	// MPI_RECT from the paper: 4 contiguous doubles.
	rect, err := TypeContiguous(4, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if rect.Size() != 32 || rect.Extent() != 32 {
		t.Errorf("rect size=%d extent=%d", rect.Size(), rect.Extent())
	}
	if !rect.Contiguous() {
		t.Error("contiguous of dense base must be dense (single block)")
	}
	if len(rect.Blocks()) != 1 {
		t.Errorf("blocks = %d, want coalesced 1", len(rect.Blocks()))
	}
	if _, err := TypeContiguous(-1, Float64); err == nil {
		t.Error("negative count accepted")
	}
}

func TestTypeVector(t *testing.T) {
	// A column of a 4x3 row-major double matrix: the paper's own example of
	// a non-contiguous area (§2).
	col, err := TypeVector(4, 1, 3, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if col.Size() != 32 {
		t.Errorf("size = %d", col.Size())
	}
	if col.Extent() != (3*3+1)*8 {
		t.Errorf("extent = %d, want %d", col.Extent(), (3*3+1)*8)
	}
	if col.Contiguous() {
		t.Error("strided vector must not be contiguous")
	}
	if len(col.Blocks()) != 4 {
		t.Errorf("blocks = %d", len(col.Blocks()))
	}
	if _, err := TypeVector(2, 3, 1, Float64); err == nil {
		t.Error("stride < blockLen accepted")
	}
}

func TestTypeVectorPackUnpack(t *testing.T) {
	col, err := TypeVector(4, 1, 3, Float64)
	if err != nil {
		t.Fatal(err)
	}
	// Matrix of 12 doubles; column 0 elements are at 0, 3, 6, 9.
	src := make([]byte, 12*8)
	for i := 0; i < 12; i++ {
		src[i*8] = byte(i + 1) // tag each double by first byte
	}
	packed := pack(col, src, 1)
	if len(packed) != 32 {
		t.Errorf("packed %d bytes", len(packed))
	}
	for i, want := range []byte{1, 4, 7, 10} {
		if packed[i*8] != want {
			t.Errorf("packed element %d tag = %d, want %d", i, packed[i*8], want)
		}
	}
	// Unpack back into a zeroed matrix: only the column cells are written.
	dst := make([]byte, 12*8)
	unpack(col, dst, packed, 1)
	for i := 0; i < 12; i++ {
		want := byte(0)
		if i%3 == 0 {
			want = byte(i + 1)
		}
		if dst[i*8] != want {
			t.Errorf("unpacked cell %d tag = %d, want %d", i, dst[i*8], want)
		}
	}
}

func TestTypeIndexed(t *testing.T) {
	// Variable-length polygons: vertex counts {3,1,2} at displacements
	// {0,5,8} — the paper's §4.1 preprocessing for non-contiguous polygon
	// file views.
	dt, err := TypeIndexed([]int{3, 1, 2}, []int{0, 5, 8}, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Size() != 6*8 {
		t.Errorf("size = %d", dt.Size())
	}
	if dt.Extent() != 10*8 {
		t.Errorf("extent = %d", dt.Extent())
	}
	src := make([]byte, 10*8)
	for i := 0; i < 10; i++ {
		src[i*8] = byte(i + 1)
	}
	packed := pack(dt, src, 1)
	wantTags := []byte{1, 2, 3, 6, 9, 10}
	for i, want := range wantTags {
		if packed[i*8] != want {
			t.Errorf("element %d tag = %d, want %d", i, packed[i*8], want)
		}
	}
	if _, err := TypeIndexed([]int{1}, []int{1, 2}, Float64); err == nil {
		t.Error("mismatched arrays accepted")
	}
	if _, err := TypeIndexed([]int{-1}, []int{0}, Float64); err == nil {
		t.Error("negative block length accepted")
	}
}

func TestTypeStruct(t *testing.T) {
	// A C struct {int32 id; double x; double y;} with 4 bytes padding after
	// id: offsets 0, 8, 16, extent 24.
	dt, err := TypeStruct([]StructField{
		{Offset: 0, Count: 1, Type: Int32},
		{Offset: 8, Count: 2, Type: Float64},
	}, 24)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Size() != 20 {
		t.Errorf("size = %d, want 20", dt.Size())
	}
	if dt.Extent() != 24 {
		t.Errorf("extent = %d, want 24", dt.Extent())
	}
	src := make([]byte, 48)
	for i := range src {
		src[i] = byte(i)
	}
	packed := pack(dt, src, 2)
	// First instance: bytes 0-3 and 8-23. Second: 24-27 and 32-47.
	want := append(append([]byte{0, 1, 2, 3}, src[8:24]...), append([]byte{24, 25, 26, 27}, src[32:48]...)...)
	if !bytes.Equal(packed, want) {
		t.Errorf("struct pack mismatch:\n got %v\nwant %v", packed, want)
	}
	// Round trip.
	dst := make([]byte, 48)
	unpack(dt, dst, packed, 2)
	for _, off := range []int{0, 8, 24, 32} {
		if dst[off] != src[off] {
			t.Errorf("unpack lost byte at %d", off)
		}
	}
	// Padding bytes stay zero.
	if dst[4] != 0 || dst[28] != 0 {
		t.Error("unpack wrote into padding")
	}
	if _, err := TypeStruct([]StructField{{Offset: 0, Count: 1, Type: Float64}}, 4); err == nil {
		t.Error("extent smaller than fields accepted")
	}
}

func TestNestedTypes(t *testing.T) {
	// Compound spatial types by nesting (paper §4.2.1): a fixed-size
	// "polygon" of 3 points, each point 2 doubles.
	point, err := TypeContiguous(2, Float64)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := TypeContiguous(3, point)
	if err != nil {
		t.Fatal(err)
	}
	if tri.Size() != 48 || !tri.Contiguous() {
		t.Errorf("nested type size=%d contiguous=%v", tri.Size(), tri.Contiguous())
	}
}
