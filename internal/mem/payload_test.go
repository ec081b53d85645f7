package mem

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

func TestCaptureDeliverContiguous(t *testing.T) {
	src, _ := NewSpace(1 << 16)
	dst, _ := NewSpace(1 << 16)
	sseg, _ := src.Alloc("s", Bytes, 64)
	dseg, _ := dst.Alloc("d", Bytes, 64)
	for i := range sseg.BytesData() {
		sseg.BytesData()[i] = byte(i)
	}
	p, err := CapturePayload(src, sseg.Base(), Contiguous(32))
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 32 {
		t.Fatalf("size = %d", p.Size())
	}
	// Mutate the source AFTER capture: delivery must see old data
	// (the zero-copy-with-send-flag semantics).
	sseg.BytesData()[0] = 0xFF
	if err := p.Deliver(dst, dseg.Base(), Contiguous(32)); err != nil {
		t.Fatal(err)
	}
	if dseg.BytesData()[0] != 0 {
		t.Fatal("delivered data reflects post-capture mutation")
	}
	for i := 1; i < 32; i++ {
		if dseg.BytesData()[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, dseg.BytesData()[i])
		}
	}
}

func TestCaptureDeliverFloat64Stride(t *testing.T) {
	src, _ := NewSpace(1 << 16)
	dst, _ := NewSpace(1 << 16)
	sseg, sdata, _ := src.AllocFloat64("s", 20)
	dseg, ddata, _ := dst.AllocFloat64("d", 5)
	for i := range sdata {
		sdata[i] = float64(i)
	}
	// Gather every 4th element.
	pat := Stride{ItemSize: 8, Count: 5, Skip: 24}
	p, err := CapturePayload(src, sseg.Base(), pat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Float64s(); !ok {
		t.Fatal("payload from float64 segment should expose Float64s")
	}
	if err := p.Deliver(dst, dseg.Base(), Contiguous(40)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if ddata[i] != float64(i*4) {
			t.Fatalf("d[%d] = %v", i, ddata[i])
		}
	}
}

func TestPayloadAccessors(t *testing.T) {
	src, _ := NewSpace(1 << 16)
	bseg, _ := src.Alloc("b", Bytes, 16)
	copy(bseg.BytesData(), "hello")
	p, err := CapturePayload(src, bseg.Base(), Contiguous(5))
	if err != nil {
		t.Fatal(err)
	}
	data, ok := p.Bytes()
	if !ok || string(data) != "hello" {
		t.Fatalf("Bytes = %q, %v", data, ok)
	}
	if _, ok := p.Float64s(); ok {
		t.Fatal("byte payload should not expose Float64s")
	}
	var nilP *Payload
	if nilP.Size() != 0 {
		t.Fatal("nil payload size")
	}
	if err := nilP.Deliver(src, bseg.Base(), Contiguous(0)); err != nil {
		t.Fatal("nil deliver should be a no-op")
	}
	if _, ok := nilP.Bytes(); ok {
		t.Fatal("nil payload Bytes should fail")
	}
}

func TestDeliverSizeMismatch(t *testing.T) {
	src, _ := NewSpace(1 << 16)
	seg, _ := src.Alloc("b", Bytes, 16)
	p, _ := CapturePayload(src, seg.Base(), Contiguous(8))
	if err := p.Deliver(src, seg.Base(), Contiguous(16)); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestCaptureErrors(t *testing.T) {
	src, _ := NewSpace(1 << 16)
	seg, _ := src.Alloc("b", Bytes, 16)
	if _, err := CapturePayload(src, Addr(0xbeef0000), Contiguous(8)); err == nil {
		t.Fatal("unmapped capture should fail")
	}
	if _, err := CapturePayload(src, seg.Base(), Contiguous(0)); err == nil {
		t.Fatal("zero-length pattern should fail validation")
	}
	if _, err := CapturePayload(src, seg.Base(), Contiguous(17)); err == nil {
		t.Fatal("overrun capture should fail")
	}
	// Half an element of a float64 segment: there is no byte
	// representation to fall back to, and the error says which segment
	// cannot supply it.
	fseg, _, _ := src.AllocFloat64("f", 4)
	inFlight := PayloadsInFlight()
	_, err := CapturePayload(src, fseg.Base(), Contiguous(4))
	if err == nil || !strings.Contains(err.Error(), `float64 segment "f"`) || strings.Contains(err.Error(), "cross-kind") {
		t.Fatalf("sub-element capture: %v", err)
	}
	if n := PayloadsInFlight(); n != inFlight {
		t.Fatalf("failed capture left payloads in flight: %d -> %d", inFlight, n)
	}
}

// TestSum64 pins the three properties the reliable path needs of the
// word-folding checksum: the representation does not matter, a flipped
// bit anywhere (whole words or tail) changes the sum, and the fold is
// FNV-1a over little-endian words with the tail folded byte by byte.
func TestSum64(t *testing.T) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	sp, _ := NewSpace(1 << 16)
	bseg, _ := sp.Alloc("b", Bytes, 264)
	fseg, _ := sp.Alloc("f", Float64, 264)
	rng := rand.New(rand.NewSource(1994))
	rng.Read(bseg.BytesData())
	if err := Copy(sp, fseg.Base(), sp, bseg.Base(), 264); err != nil {
		t.Fatal(err)
	}
	var nilP *Payload
	if nilP.Sum64() != offset {
		t.Error("nil payload must hash to the offset basis")
	}
	for size := int64(1); size <= 257; size++ {
		p, err := CapturePayload(sp, bseg.Base(), Contiguous(size))
		if err != nil {
			t.Fatal(err)
		}
		sum := p.Sum64()
		b := bseg.BytesData()[:size]
		want := uint64(offset)
		for ; len(b) >= 8; b = b[8:] {
			want = (want ^ binary.LittleEndian.Uint64(b)) * prime
		}
		for _, c := range b {
			want = (want ^ uint64(c)) * prime
		}
		if sum != want {
			t.Fatalf("size %d: Sum64 = %#x, want %#x", size, sum, want)
		}
		payloads := []*Payload{p}
		if size%8 == 0 {
			q, err := CapturePayload(sp, fseg.Base(), Contiguous(size))
			if err != nil {
				t.Fatal(err)
			}
			if q.Sum64() != sum {
				t.Fatalf("size %d: float64 payload hashes %#x, bytes payload %#x", size, q.Sum64(), sum)
			}
			payloads = append(payloads, q)
		}
		for _, p := range payloads {
			for bit := uint64(0); bit < uint64(size)*8; bit++ {
				if p.CorruptClone(bit).Sum64() == sum {
					t.Fatalf("size %d kind %s: flipping bit %d leaves Sum64 unchanged", size, p.seg.kind, bit)
				}
			}
			p.Release()
		}
	}
}
