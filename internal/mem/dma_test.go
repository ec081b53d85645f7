package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The differential oracle for the DMA engine. It shares nothing with
// the engine but the Segment type: segments are read and written one
// byte at a time through a little-endian view, the stream is cut into
// runs with a position-in-item counter per side, and the word rule is
// applied run by run, as the hardware model states it, not pattern by
// pattern as the engine checks it.

func loadByte(seg *Segment, off int64) byte {
	if seg.kind == Bytes {
		return seg.bytes[off]
	}
	return byte(math.Float64bits(seg.f64[off/8]) >> (8 * (off % 8)))
}

func storeByte(seg *Segment, off int64, b byte) {
	if seg.kind == Bytes {
		seg.bytes[off] = b
		return
	}
	shift := 8 * (off % 8)
	w := math.Float64bits(seg.f64[off/8])&^(0xff<<shift) | uint64(b)<<shift
	seg.f64[off/8] = math.Float64frombits(w)
}

// image returns the little-endian byte view of the whole segment.
func image(seg *Segment) []byte {
	out := make([]byte, seg.size)
	for i := range out {
		out[i] = loadByte(seg, int64(i))
	}
	return out
}

// run is one stretch of the payload stream that is contiguous on both
// sides: the bytes between consecutive item boundaries of either.
type run struct{ doff, soff, n int64 }

func splitRuns(doff int64, dstPat Stride, soff int64, srcPat Stride) []run {
	var runs []run
	var si, di, sfill, dfill int64
	for left := srcPat.Total(); left > 0; {
		n := min(srcPat.ItemSize-sfill, dstPat.ItemSize-dfill)
		runs = append(runs, run{
			doff: doff + di*(dstPat.ItemSize+dstPat.Skip) + dfill,
			soff: soff + si*(srcPat.ItemSize+srcPat.Skip) + sfill,
			n:    n,
		})
		left -= n
		if sfill += n; sfill == srcPat.ItemSize {
			sfill, si = 0, si+1
		}
		if dfill += n; dfill == dstPat.ItemSize {
			dfill, di = 0, di+1
		}
	}
	return runs
}

// oracleCopy is the specification of a stride transfer. A transfer
// touching a Float64 segment is legal only if every run starts on a
// word boundary on both sides and is whole words long; an illegal
// transfer moves nothing. Runs move in ascending order, each read
// completely before it is written.
func oracleCopy(dseg *Segment, doff int64, dstPat Stride, sseg *Segment, soff int64, srcPat Stride) bool {
	runs := splitRuns(doff, dstPat, soff, srcPat)
	if dseg.kind == Float64 || sseg.kind == Float64 {
		for _, r := range runs {
			if r.doff%8 != 0 || r.soff%8 != 0 || r.n%8 != 0 {
				return false
			}
		}
	}
	for _, r := range runs {
		buf := make([]byte, r.n)
		for i := range buf {
			buf[i] = loadByte(sseg, r.soff+int64(i))
		}
		for i, b := range buf {
			storeByte(dseg, r.doff+int64(i), b)
		}
	}
	return true
}

// dmaCase is one transfer: where the two patterns sit and what backs
// them. With same set, source and destination live in one segment (of
// kind skind) and may overlap.
type dmaCase struct {
	dkind, skind Kind
	same         bool
	doff, soff   int64
	dst, src     Stride
}

func (c dmaCase) String() string {
	where := "two segments"
	if c.same {
		where = "one segment"
	}
	return fmt.Sprintf("%s@%d %+v <- %s@%d %+v (%s)", c.dkind, c.doff, c.dst, c.skind, c.soff, c.src, where)
}

// world builds the case's segments with a fill that depends only on
// the case, so the engine and the oracle start from equal memories.
func (c dmaCase) world() (sp *Space, dseg, sseg *Segment) {
	sp, _ = NewSpace(1 << 20)
	size := func(off int64, pat Stride) int64 { return (off+pat.Extent()+7)&^7 + 16 }
	rng := rand.New(rand.NewSource(c.doff ^ c.soff<<8 ^ c.src.ItemSize<<16))
	alloc := func(name string, kind Kind, n int64) *Segment {
		seg, err := sp.Alloc(name, kind, n)
		if err != nil {
			panic(err)
		}
		for i := int64(0); i < n; i++ {
			storeByte(seg, i, byte(rng.Intn(256)))
		}
		return seg
	}
	if c.same {
		seg := alloc("both", c.skind, max(size(c.doff, c.dst), size(c.soff, c.src)))
		return sp, seg, seg
	}
	return sp, alloc("dst", c.dkind, size(c.doff, c.dst)), alloc("src", c.skind, size(c.soff, c.src))
}

// inPattern reports whether byte offset off of a segment is one the
// pattern at base writes.
func inPattern(off, base int64, pat Stride) bool {
	off -= base
	if off < 0 || off >= pat.Extent() {
		return false
	}
	return off%(pat.ItemSize+pat.Skip) < pat.ItemSize
}

// checkAgainstOracle runs the case through every entry point of the
// engine that can express it and through the oracle, and reports any
// difference in verdict or in memory.
func checkAgainstOracle(t testing.TB, c dmaCase) {
	t.Helper()
	if c.same {
		c.dkind = c.skind
	}
	inFlight := PayloadsInFlight()
	total := c.src.Total()

	type entry struct {
		name   string
		engine func(sp *Space, d, s *Segment) error
		oracle func(sp *Space, d, s *Segment) bool
	}
	entries := []entry{{
		name: "CopyStride",
		engine: func(sp *Space, d, s *Segment) error {
			return CopyStride(sp, d.Base()+Addr(c.doff), c.dst, sp, s.Base()+Addr(c.soff), c.src)
		},
		oracle: func(_ *Space, d, s *Segment) bool { return oracleCopy(d, c.doff, c.dst, s, c.soff, c.src) },
	}}
	if c.dst.Count == 1 && c.src.Count == 1 {
		entries = append(entries, entry{
			name: "Copy",
			engine: func(sp *Space, d, s *Segment) error {
				return Copy(sp, d.Base()+Addr(c.doff), sp, s.Base()+Addr(c.soff), total)
			},
			oracle: entries[0].oracle,
		})
	}
	if !c.same {
		// A PUT: the payload is a private contiguous buffer of the
		// source's kind, so the two halves are judged separately and a
		// byte source may feed a float64 destination from any offset.
		entries = append(entries, entry{
			name: "CapturePayload/Deliver",
			engine: func(sp *Space, d, s *Segment) error {
				p, err := CapturePayload(sp, s.Base()+Addr(c.soff), c.src)
				if err != nil {
					return err
				}
				defer p.Release()
				return p.Deliver(sp, d.Base()+Addr(c.doff), c.dst)
			},
			oracle: func(sp *Space, d, s *Segment) bool {
				buf, err := sp.Alloc("payload", s.kind, (total+7)&^7)
				if err != nil {
					panic(err)
				}
				return oracleCopy(buf, 0, Contiguous(total), s, c.soff, c.src) &&
					oracleCopy(d, c.doff, c.dst, buf, 0, Contiguous(total))
			},
		})
	}

	for _, e := range entries {
		sp, d, s := c.world()
		before := image(d)
		err := e.engine(sp, d, s)
		gotD, gotS := image(d), image(s)

		osp, od, os := c.world()
		ok := e.oracle(osp, od, os)
		if ok != (err == nil) {
			t.Errorf("%s %v: engine error %v, oracle accepts = %v", e.name, c, err, ok)
			continue
		}
		if err != nil && !bytes.Equal(gotD, before) {
			t.Errorf("%s %v: rejected (%v) after writing the destination", e.name, c, err)
		}
		if !bytes.Equal(gotD, image(od)) || !bytes.Equal(gotS, image(os)) {
			t.Errorf("%s %v: memory differs from the oracle's", e.name, c)
		}
		for off := range gotD {
			if !inPattern(int64(off), c.doff, c.dst) && gotD[off] != before[off] {
				t.Errorf("%s %v: byte %d lies outside the destination pattern and changed", e.name, c, off)
				break
			}
		}
	}
	if n := PayloadsInFlight(); n != inFlight {
		t.Errorf("%v: payloads in flight %d -> %d", c, inFlight, n)
	}
}

// TestStrideKernelsMatchOracle sweeps kind pair x shape x item size x
// skip x offset, with source and destination in two segments and
// overlapping in one. Shapes a Float64 side cannot express (sub-word
// items, odd skips and offsets) are in the sweep on purpose: engine and
// oracle must reject the same transfers, and a rejected transfer must
// leave memory alone.
func TestStrideKernelsMatchOracle(t *testing.T) {
	type shape struct {
		name     string
		dst, src func(item, skip int64) Stride
	}
	strided := func(items, count int64) func(item, skip int64) Stride {
		return func(item, skip int64) Stride { return Stride{ItemSize: items * item, Count: count, Skip: skip} }
	}
	whole := func(item, _ int64) Stride { return Contiguous(6 * item) }
	shapes := []shape{
		{"contiguous", whole, whole},
		{"gather", whole, strided(1, 6)},
		{"scatter", strided(1, 6), whole},
		{"equal", strided(1, 6), strided(1, 6)},
		{"figure3", strided(3, 2), strided(2, 3)},
	}
	kinds := []Kind{Bytes, Float64}
	for _, dkind := range kinds {
		for _, skind := range kinds {
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("%s<-%s/%s", dkind, skind, sh.name), func(t *testing.T) {
					for _, item := range []int64{1, 2, 3, 4, 7, 8, 16, 24, 512} {
						for _, skips := range [][2]int64{{0, 0}, {8, 8}, {0, 24}, {16, 0}, {3, 5}} {
							c := dmaCase{dkind: dkind, skind: skind, dst: sh.dst(item, skips[0]), src: sh.src(item, skips[1])}
							for _, offs := range [][2]int64{{0, 0}, {16, 8}, {5, 0}, {8, 3}} {
								c.doff, c.soff, c.same = offs[0], offs[1], false
								checkAgainstOracle(t, c)
							}
							if dkind != skind {
								continue
							}
							// One segment: destination just above, just
							// below and on top of the source, a word and
							// (bytes only) an odd distance apart.
							for _, offs := range [][2]int64{{8, 0}, {0, 8}, {16, 16}, {3, 0}, {0, 5}, {item, 0}, {0, item}} {
								c.doff, c.soff, c.same = offs[0], offs[1], true
								checkAgainstOracle(t, c)
							}
						}
					}
				})
			}
		}
	}
}

// FuzzCopyStride lets the fuzzer pick the two patterns, their offsets,
// the kinds and whether the two sides share a segment. The destination
// pattern is derived so that totals always match: the fuzzer's item
// size when it divides the total, one contiguous item otherwise.
func FuzzCopyStride(f *testing.F) {
	f.Add(false, false, false, uint16(0), uint16(0), uint16(2), uint16(3), uint16(3), uint16(3), uint16(4))     // Figure 3
	f.Add(true, true, false, uint16(16), uint16(16), uint16(8), uint16(8), uint16(32), uint16(64), uint16(0))   // column gather
	f.Add(true, true, true, uint16(8), uint16(0), uint16(8), uint16(4), uint16(0), uint16(8), uint16(0))        // overlapping, no skip
	f.Add(true, false, false, uint16(0), uint16(8), uint16(16), uint16(4), uint16(8), uint16(32), uint16(24))   // cross-kind
	f.Add(false, true, false, uint16(3), uint16(0), uint16(8), uint16(4), uint16(8), uint16(8), uint16(3))      // odd byte side
	f.Add(true, true, false, uint16(0), uint16(0), uint16(8), uint16(4), uint16(4), uint16(32), uint16(0))      // misaligned skip
	f.Add(false, false, true, uint16(5), uint16(0), uint16(3), uint16(4), uint16(0), uint16(4), uint16(4))      // overlapping, unequal
	f.Add(false, false, false, uint16(1), uint16(2), uint16(512), uint16(3), uint16(7), uint16(512), uint16(9)) // large items
	f.Fuzz(func(t *testing.T, dF64, sF64, same bool, doff, soff, sitem, scount, sskip, ditem, dskip uint16) {
		kind := func(f64 bool) Kind {
			if f64 {
				return Float64
			}
			return Bytes
		}
		src := Stride{ItemSize: 1 + int64(sitem)%600, Count: 1 + int64(scount)%40, Skip: int64(sskip) % 64}
		dst := Contiguous(src.Total())
		if item := 1 + int64(ditem)%600; src.Total()%item == 0 {
			dst = Stride{ItemSize: item, Count: src.Total() / item, Skip: int64(dskip) % 64}
		}
		checkAgainstOracle(t, dmaCase{
			dkind: kind(dF64), skind: kind(sF64), same: same,
			doff: int64(doff) % 64, soff: int64(soff) % 64,
			dst: dst, src: src,
		})
	})
}

// TestRejectedTransferMovesNothing: the word rule is checked for the
// whole pattern before the first byte moves, and the error names the
// segment at fault. In the first row item 0 is aligned and item 1 is
// not: a check made item by item would store the first and then fail.
func TestRejectedTransferMovesNothing(t *testing.T) {
	sp := newSpace(t)
	fsrc, s, _ := sp.AllocFloat64("fsrc", 16)
	bsrc, _ := sp.Alloc("bsrc", Bytes, 128)
	for i := range s {
		s[i] = float64(i + 1)
		binary.LittleEndian.PutUint64(bsrc.BytesData()[8*i:], math.Float64bits(float64(i+1)))
	}
	fdst, d, _ := sp.AllocFloat64("fdst", 16)
	bdst, _ := sp.Alloc("bdst", Bytes, 128)

	for _, tc := range []struct {
		name     string
		dst      *Segment
		doff     Addr
		dstPat   Stride
		src      *Segment
		soff     Addr
		srcPat   Stride
		culprit  string
		viaPutOK bool // a PUT judges capture and deliver apart, see checkAgainstOracle
	}{
		{"skip 4 between float64 items", fdst, 0, Stride{ItemSize: 8, Count: 4, Skip: 4}, fsrc, 0, Contiguous(32), "fdst", false},
		{"float64 destination offset 4", fdst, 4, Contiguous(32), fsrc, 0, Contiguous(32), "fdst", false},
		{"half-word items on a float64 source", bdst, 0, Contiguous(16), fsrc, 0, Stride{ItemSize: 4, Count: 4, Skip: 4}, "fsrc", false},
		{"float64 source offset 12", fdst, 0, Contiguous(16), fsrc, 12, Stride{ItemSize: 8, Count: 2, Skip: 8}, "fsrc", false},
		{"byte source at an odd offset feeding float64", fdst, 0, Contiguous(32), bsrc, 3, Contiguous(32), "bsrc", true},
		{"byte destination with skip 4 fed from float64", bdst, 0, Stride{ItemSize: 8, Count: 4, Skip: 4}, fsrc, 0, Contiguous(32), "bdst", false},
		{"sub-word total from a float64 source", bdst, 0, Contiguous(4), fsrc, 0, Contiguous(4), "fsrc", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clear(d)
			clear(bdst.BytesData())
			before := image(tc.dst)
			check := func(how string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s: accepted", how)
				}
				if !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.culprit)) {
					t.Errorf("%s: error does not name segment %q: %v", how, tc.culprit, err)
				}
				if !bytes.Equal(image(tc.dst), before) {
					t.Errorf("%s: destination changed before the transfer was rejected (%v)", how, err)
				}
			}
			check("CopyStride", CopyStride(sp, tc.dst.Base()+tc.doff, tc.dstPat, sp, tc.src.Base()+tc.soff, tc.srcPat))
			if tc.dstPat.Count == 1 && tc.srcPat.Count == 1 {
				check("Copy", Copy(sp, tc.dst.Base()+tc.doff, sp, tc.src.Base()+tc.soff, tc.srcPat.Total()))
			}
			if tc.viaPutOK {
				return
			}
			inFlight := PayloadsInFlight()
			p, err := CapturePayload(sp, tc.src.Base()+tc.soff, tc.srcPat)
			if err == nil {
				err = p.Deliver(sp, tc.dst.Base()+tc.doff, tc.dstPat)
				p.Release()
			}
			check("CapturePayload/Deliver", err)
			if n := PayloadsInFlight(); n != inFlight {
				t.Errorf("payloads in flight %d -> %d", inFlight, n)
			}
		})
	}
}

// BenchmarkDMA prices the DMA engine shape by shape: the contiguous
// copy at the two payload sizes the machine benchmark uses, then 64 KiB
// gathered, scattered and moved between two strided sides at item sizes
// 8, 64 and 512, between Bytes segments, Float64 segments and across
// the two. A strided side leaves a gap of one item. column is one
// column of a 256x256 REAL*8 matrix, short enough for the per-transfer
// set-up to show; unequal is Figure 3's shape, the one transfer the run
// splitter serves.
func BenchmarkDMA(b *testing.B) {
	const total = 64 << 10
	strided := func(item int64) Stride { return Stride{ItemSize: item, Count: total / item, Skip: item} }
	type shape struct {
		name     string
		dst, src Stride
	}
	shapes := []shape{
		{"contiguous/512", Contiguous(512), Contiguous(512)},
		{"contiguous/64K", Contiguous(total), Contiguous(total)},
	}
	for _, item := range []int64{8, 64, 512} {
		shapes = append(shapes,
			shape{fmt.Sprintf("gather/%d", item), Contiguous(total), strided(item)},
			shape{fmt.Sprintf("scatter/%d", item), strided(item), Contiguous(total)},
			shape{fmt.Sprintf("twosided/%d", item), strided(item), strided(item)},
		)
	}
	shapes = append(shapes, shape{"column/256x8", Contiguous(256 * 8), Stride{ItemSize: 8, Count: 256, Skip: 255 * 8}})
	shapes = append(shapes, shape{"unequal/16into24", Stride{ItemSize: 24, Count: total / 32, Skip: 24}, Stride{ItemSize: 16, Count: 3 * total / 64, Skip: 16}})
	for _, k := range []struct {
		name     string
		dst, src Kind
	}{
		{"bytes", Bytes, Bytes},
		{"float64", Float64, Float64},
		{"cross", Float64, Bytes},
	} {
		for _, sh := range shapes {
			b.Run(k.name+"/"+sh.name, func(b *testing.B) {
				sp, _ := NewSpace(1 << 20)
				src, _ := sp.Alloc("src", k.src, sh.src.Extent())
				dst, _ := sp.Alloc("dst", k.dst, sh.dst.Extent())
				b.SetBytes(sh.src.Total())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := CopyStride(sp, dst.Base(), sh.dst, sp, src.Base(), sh.src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
