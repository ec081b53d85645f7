package mem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func newSpace(t testing.TB) *Space {
	t.Helper()
	sp, err := NewSpace(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestNewSpaceRejectsBadCapacity(t *testing.T) {
	for _, c := range []int64{0, -1} {
		if _, err := NewSpace(c); err == nil {
			t.Errorf("NewSpace(%d) should fail", c)
		}
	}
}

func TestAllocBasics(t *testing.T) {
	sp := newSpace(t)
	a, err := sp.Alloc("a", Bytes, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base() != PageSize {
		t.Errorf("first segment base = %#x, want %#x (address 0 reserved)", a.Base(), PageSize)
	}
	if a.Size() != 100 || a.Kind() != Bytes || a.Name() != "a" {
		t.Errorf("segment = %+v", a)
	}
	b, err := sp.Alloc("b", Float64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b.Base()%PageSize != 0 {
		t.Errorf("segment base %#x not page aligned", b.Base())
	}
	if b.Base() <= a.Base() {
		t.Errorf("segments overlap: %#x then %#x", a.Base(), b.Base())
	}
	if sp.Used() != 164 {
		t.Errorf("Used = %d", sp.Used())
	}
	if len(sp.Segments()) != 2 {
		t.Errorf("Segments = %d", len(sp.Segments()))
	}
}

func TestAllocErrors(t *testing.T) {
	sp := newSpace(t)
	if _, err := sp.Alloc("z", Bytes, 0); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := sp.Alloc("z", Bytes, -8); err == nil {
		t.Error("negative size should fail")
	}
	if _, err := sp.Alloc("z", Float64, 12); err == nil {
		t.Error("non-multiple-of-8 float64 segment should fail")
	}
	if _, err := sp.Alloc("big", Bytes, 2<<20); err == nil {
		t.Error("over-capacity alloc should fail")
	}
}

func TestAllocFloat64(t *testing.T) {
	sp := newSpace(t)
	seg, data, err := sp.AllocFloat64("v", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 10 || seg.Size() != 80 {
		t.Fatalf("len=%d size=%d", len(data), seg.Size())
	}
	data[3] = 42
	if seg.Float64Data()[3] != 42 {
		t.Fatal("returned slice is not the backing store")
	}
}

func TestKindAccessorsPanic(t *testing.T) {
	sp := newSpace(t)
	seg, _ := sp.Alloc("b", Bytes, 16)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Float64Data on bytes segment should panic")
			}
		}()
		seg.Float64Data()
	}()
	fseg, _ := sp.Alloc("f", Float64, 16)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BytesData on float64 segment should panic")
			}
		}()
		fseg.BytesData()
	}()
}

func TestResolve(t *testing.T) {
	sp := newSpace(t)
	a, _ := sp.Alloc("a", Bytes, 100)
	b, _ := sp.Alloc("b", Bytes, 100)
	got, err := sp.Resolve(a.Base()+50, 50)
	if err != nil || got != a {
		t.Fatalf("Resolve mid-a = %v, %v", got, err)
	}
	if _, err := sp.Resolve(a.Base()+50, 51); err == nil {
		t.Error("overrun past segment end should fail")
	}
	if _, err := sp.Resolve(0, 1); err == nil {
		t.Error("address 0 is unmapped")
	}
	if _, err := sp.Resolve(a.Base()+Addr(a.Size()), 1); err == nil {
		t.Error("gap between segments should be unmapped")
	}
	if got, _ := sp.Resolve(b.Base(), b.Size()); got != b {
		t.Error("whole-segment resolve failed")
	}
}

func TestCopyBytes(t *testing.T) {
	sp1 := newSpace(t)
	sp2 := newSpace(t)
	src, _ := sp1.Alloc("src", Bytes, 256)
	dst, _ := sp2.Alloc("dst", Bytes, 256)
	for i := range src.BytesData() {
		src.BytesData()[i] = byte(i)
	}
	if err := Copy(sp2, dst.Base()+16, sp1, src.Base()+32, 64); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if dst.BytesData()[16+i] != byte(32+i) {
			t.Fatalf("byte %d = %d", i, dst.BytesData()[16+i])
		}
	}
	// Outside the copied window untouched.
	if dst.BytesData()[15] != 0 || dst.BytesData()[80] != 0 {
		t.Fatal("copy wrote outside the window")
	}
}

func TestCopyFloat64(t *testing.T) {
	sp1 := newSpace(t)
	sp2 := newSpace(t)
	_, srcData, _ := sp1.AllocFloat64("src", 16)
	srcSeg := sp1.Segments()[0]
	dstSeg, dstData, _ := sp2.AllocFloat64("dst", 16)
	for i := range srcData {
		srcData[i] = float64(i) * 1.5
	}
	if err := Copy(sp2, dstSeg.Base()+8, sp1, srcSeg.Base()+16, 40); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if dstData[1+i] != float64(2+i)*1.5 {
			t.Fatalf("elem %d = %v", i, dstData[1+i])
		}
	}
}

func TestCopyCrossKind(t *testing.T) {
	sp := newSpace(t)
	fseg, fdata, _ := sp.AllocFloat64("f", 4)
	bseg, _ := sp.Alloc("b", Bytes, 32)
	fdata[0], fdata[1], fdata[2], fdata[3] = 1, 2, 3, 4
	if err := Copy(sp, bseg.Base(), sp, fseg.Base(), 32); err != nil {
		t.Fatal(err)
	}
	// Round-trip back into a fresh float segment.
	f2seg, f2, _ := sp.AllocFloat64("f2", 4)
	if err := Copy(sp, f2seg.Base(), sp, bseg.Base(), 32); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if f2[i] != want {
			t.Fatalf("f2[%d] = %v", i, f2[i])
		}
	}
}

func TestCopyErrors(t *testing.T) {
	sp := newSpace(t)
	bseg, _ := sp.Alloc("b", Bytes, 64)
	fseg, _, _ := sp.AllocFloat64("f", 8)
	if err := Copy(sp, bseg.Base(), sp, bseg.Base(), -1); err == nil {
		t.Error("negative size should fail")
	}
	if err := Copy(sp, bseg.Base(), sp, Addr(0xdead0000), 8); err == nil {
		t.Error("unmapped source should fail")
	}
	if err := Copy(sp, Addr(0xdead0000), sp, bseg.Base(), 8); err == nil {
		t.Error("unmapped destination should fail")
	}
	if err := Copy(sp, fseg.Base()+4, sp, bseg.Base(), 8); err == nil {
		t.Error("misaligned float64 destination should fail")
	}
	if err := Copy(sp, fseg.Base(), sp, bseg.Base(), 4); err == nil {
		t.Error("partial-element cross-kind copy should fail")
	}
	if err := Copy(sp, bseg.Base(), sp, bseg.Base(), 0); err != nil {
		t.Errorf("zero-size copy should succeed: %v", err)
	}
}

func TestStrideValidate(t *testing.T) {
	ok := Stride{ItemSize: 8, Count: 3, Skip: 16}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.Total() != 24 {
		t.Errorf("Total = %d", ok.Total())
	}
	if ok.Extent() != 24+32 {
		t.Errorf("Extent = %d", ok.Extent())
	}
	for _, bad := range []Stride{
		{ItemSize: 0, Count: 1},
		{ItemSize: 8, Count: 0},
		{ItemSize: 8, Count: 1, Skip: -1},
		{ItemSize: 1 << 62, Count: 4},                // Total wraps to 0
		{ItemSize: 1 << 32, Count: 1 << 31},          // Total wraps negative
		{ItemSize: 8, Count: 3, Skip: 1 << 62},       // gaps wrap
		{ItemSize: 1 << 61, Count: 2, Skip: 1 << 62}, // Total fits, Extent does not
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", bad)
		}
	}
	if c := Contiguous(100); c.ItemSize != 100 || c.Count != 1 || c.Skip != 0 {
		t.Errorf("Contiguous = %+v", c)
	}
}

// TestCopyStrideFigure3 reproduces the exact Figure 3 picture:
// send_item_size x send_cnt=3 feeding recv_item_size x recv_cnt=2
// with differing item sizes.
func TestCopyStrideFigure3(t *testing.T) {
	sp := newSpace(t)
	src, _ := sp.Alloc("src", Bytes, 256)
	dst, _ := sp.Alloc("dst", Bytes, 256)
	for i := range src.BytesData() {
		src.BytesData()[i] = byte(i + 1)
	}
	// 3 items of 2 bytes, skip 3 -> payload "1,2  6,7  11,12"
	srcPat := Stride{ItemSize: 2, Count: 3, Skip: 3}
	// 2 items of 3 bytes, skip 4.
	dstPat := Stride{ItemSize: 3, Count: 2, Skip: 4}
	if err := CopyStride(sp, dst.Base(), dstPat, sp, src.Base(), srcPat); err != nil {
		t.Fatal(err)
	}
	d := dst.BytesData()
	want := []byte{1, 2, 6, 0, 0, 0, 0, 7, 11, 12}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("dst[%d] = %d, want %d (dst=%v)", i, d[i], w, d[:12])
		}
	}
}

func TestCopyStrideFloat64Column(t *testing.T) {
	// The motivating case: copying a column of a row-major 2-D array
	// (stride = row length) into a contiguous vector, as SPREAD MOVE
	// needs when the loop index is the 2nd dimension (S2.2).
	sp := newSpace(t)
	const rows, cols = 8, 5
	mseg, m, _ := sp.AllocFloat64("m", rows*cols)
	vseg, v, _ := sp.AllocFloat64("v", rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m[r*cols+c] = float64(r*100 + c)
		}
	}
	// Column 2: items of 8 bytes, skip (cols-1)*8.
	srcPat := Stride{ItemSize: 8, Count: rows, Skip: (cols - 1) * 8}
	dstPat := Contiguous(rows * 8)
	if err := CopyStride(sp, vseg.Base(), dstPat, sp, mseg.Base()+2*8, srcPat); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		if v[r] != float64(r*100+2) {
			t.Fatalf("v[%d] = %v", r, v[r])
		}
	}
}

func TestCopyStrideScatter(t *testing.T) {
	// Contiguous source scattered into a strided destination (the
	// receive side of OVERLAP FIX along the 2nd dimension).
	sp := newSpace(t)
	sseg, s, _ := sp.AllocFloat64("s", 4)
	dseg, d, _ := sp.AllocFloat64("d", 16)
	for i := range s {
		s[i] = float64(i + 1)
	}
	dstPat := Stride{ItemSize: 8, Count: 4, Skip: 24}
	if err := CopyStride(sp, dseg.Base(), dstPat, sp, sseg.Base(), Contiguous(32)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if d[i*4] != float64(i+1) {
			t.Fatalf("d[%d] = %v (d=%v)", i*4, d[i*4], d)
		}
	}
}

func TestCopyStrideErrors(t *testing.T) {
	sp := newSpace(t)
	a, _ := sp.Alloc("a", Bytes, 64)
	b, _ := sp.Alloc("b", Bytes, 64)
	// Payload mismatch.
	err := CopyStride(sp, b.Base(), Stride{ItemSize: 3, Count: 3}, sp, a.Base(), Stride{ItemSize: 2, Count: 3})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("payload mismatch: %v", err)
	}
	// Extent overruns segment.
	err = CopyStride(sp, b.Base(), Contiguous(32), sp, a.Base(), Stride{ItemSize: 8, Count: 4, Skip: 100})
	if err == nil {
		t.Error("extent overrun should fail")
	}
	// Invalid pattern.
	err = CopyStride(sp, b.Base(), Contiguous(0), sp, a.Base(), Contiguous(0))
	if err == nil {
		t.Error("zero pattern should fail")
	}
}

// Property: CopyStride gather (strided->contiguous) then scatter
// (contiguous->strided) restores the original items.
func TestStrideGatherScatterRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp, _ := NewSpace(1 << 20)
		itemSize := int64(1 + rng.Intn(16))
		count := int64(1 + rng.Intn(20))
		skip := int64(rng.Intn(16))
		pat := Stride{ItemSize: itemSize, Count: count, Skip: skip}
		src, _ := sp.Alloc("src", Bytes, pat.Extent())
		mid, _ := sp.Alloc("mid", Bytes, pat.Total())
		dst, _ := sp.Alloc("dst", Bytes, pat.Extent())
		rng.Read(src.BytesData())
		if err := CopyStride(sp, mid.Base(), Contiguous(pat.Total()), sp, src.Base(), pat); err != nil {
			return false
		}
		if err := CopyStride(sp, dst.Base(), pat, sp, mid.Base(), Contiguous(pat.Total())); err != nil {
			return false
		}
		// Compare item areas only (gaps are not copied).
		for i := int64(0); i < count; i++ {
			off := i * (itemSize + skip)
			for j := int64(0); j < itemSize; j++ {
				if dst.BytesData()[off+j] != src.BytesData()[off+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
