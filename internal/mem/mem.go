// Package mem models a cell's local memory: the DRAM address space,
// the segments user programs allocate in it, and the DMA copy engine
// the MSC+ drives for PUT/GET transfers, including the
// one-dimensional stride mode of Figure 3.
//
// Memory is segment-based. A segment is a contiguous logical address
// range backed either by raw bytes or by a []float64 (the natural
// element type of the paper's Fortran workloads). The DMA engine
// copies between segments of any cell, converting representation when
// a transfer crosses segment kinds, so the byte-level semantics of
// the hardware are preserved while numeric kernels keep direct slice
// access to their data — the "user-level direct access" the paper's
// zero-copy PUT depends on.
//
// The engine has four entry points (Copy, CopyStride, CapturePayload,
// Payload.Deliver) and one body, copyStrideSegs. It decides everything
// that depends on the shape of a transfer once per transfer — whether
// the whole pattern respects the word rule of Float64 segments, which
// of five shapes the two patterns reduce to, which backing slices and
// which kernel serve the kind pair and item size — and then runs a loop
// that only moves data: one 8-byte load and store per REAL*8 element,
// one copy per larger item. See copyStrideSegs for the normal form, the
// kernel table and the ordering rule that makes overlapping transfers
// well defined.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Addr is a logical byte address within one cell's address space.
type Addr uint64

// PageSize is the small page size of the MC's MMU (S4.1: "256 entries
// for every 4-kilobyte page").
const PageSize = 4096

// BigPageSize is the large page size ("64 entries for every
// 256-kilobyte page").
const BigPageSize = 256 * 1024

// Kind describes a segment's backing representation.
type Kind uint8

const (
	// Bytes segments are backed by []byte.
	Bytes Kind = iota
	// Float64 segments are backed by []float64; addresses within them
	// must stay 8-byte aligned and sizes must be multiples of 8.
	Float64
)

func (k Kind) String() string {
	switch k {
	case Bytes:
		return "bytes"
	case Float64:
		return "float64"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Segment is an allocated region of a cell's memory.
type Segment struct {
	name  string
	base  Addr
	size  int64
	kind  Kind
	bytes []byte
	f64   []float64
}

// Name reports the segment's allocation label.
func (s *Segment) Name() string { return s.name }

// Base reports the segment's starting logical address.
func (s *Segment) Base() Addr { return s.base }

// Size reports the segment length in bytes.
func (s *Segment) Size() int64 { return s.size }

// Kind reports the backing representation.
func (s *Segment) Kind() Kind { return s.kind }

// BytesData returns the raw backing slice of a Bytes segment.
// The hardware DMA may concurrently write other parts of the slice;
// callers must follow the flag discipline, exactly as on the machine.
func (s *Segment) BytesData() []byte {
	if s.kind != Bytes {
		panic(fmt.Sprintf("mem: BytesData on %s segment %q", s.kind, s.name))
	}
	return s.bytes
}

// Float64Data returns the backing slice of a Float64 segment.
func (s *Segment) Float64Data() []float64 {
	if s.kind != Float64 {
		panic(fmt.Sprintf("mem: Float64Data on %s segment %q", s.kind, s.name))
	}
	return s.f64
}

// Contains reports whether [addr, addr+n) lies within the segment.
func (s *Segment) Contains(addr Addr, n int64) bool {
	return addr >= s.base && n >= 0 && int64(addr-s.base)+n <= s.size
}

// Space is one cell's local memory. It is not safe for concurrent
// allocation; allocation happens during program setup (SPMD prologue)
// while data transfers into existing segments may run concurrently.
type Space struct {
	capacity int64
	used     int64
	next     Addr
	segs     []*Segment // sorted by base
}

// allocBase is the first allocatable address. Address 0 is reserved:
// a GET with destination address 0 "goes and comes back, and does not
// copy the data" — the acknowledge trick of S4.1.
const allocBase Addr = PageSize

// NewSpace creates a memory space with the given capacity in bytes.
// The AP1000+ shipped with 16 or 64 megabytes per cell; any positive
// capacity is accepted so tests can run small.
func NewSpace(capacity int64) (*Space, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("mem: non-positive capacity %d", capacity)
	}
	return &Space{capacity: capacity, next: allocBase}, nil
}

// Capacity reports the configured DRAM size.
func (sp *Space) Capacity() int64 { return sp.capacity }

// Used reports total allocated bytes.
func (sp *Space) Used() int64 { return sp.used }

// Alloc carves a new segment of size bytes. Segments are page-aligned
// so that MMU translation of a transfer never splits a segment
// boundary mid-page.
func (sp *Space) Alloc(name string, kind Kind, size int64) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: alloc %q: non-positive size %d", name, size)
	}
	if kind == Float64 && size%8 != 0 {
		return nil, fmt.Errorf("mem: alloc %q: float64 segment size %d not a multiple of 8", name, size)
	}
	if sp.used+size > sp.capacity {
		return nil, fmt.Errorf("mem: alloc %q: %d bytes exceeds capacity (%d used of %d)", name, size, sp.used, sp.capacity)
	}
	seg := &Segment{name: name, base: sp.next, size: size, kind: kind}
	switch kind {
	case Bytes:
		seg.bytes = make([]byte, size)
	case Float64:
		seg.f64 = make([]float64, size/8)
	default:
		return nil, fmt.Errorf("mem: alloc %q: unknown kind %d", name, kind)
	}
	sp.segs = append(sp.segs, seg)
	sp.used += size
	// Advance to the next page boundary past the segment.
	end := sp.next + Addr(size)
	sp.next = (end + PageSize - 1) &^ (PageSize - 1)
	return seg, nil
}

// AllocFloat64 allocates a Float64 segment holding n elements and
// returns both the segment and its backing slice.
func (sp *Space) AllocFloat64(name string, n int) (*Segment, []float64, error) {
	seg, err := sp.Alloc(name, Float64, int64(n)*8)
	if err != nil {
		return nil, nil, err
	}
	return seg, seg.Float64Data(), nil
}

// Resolve finds the segment containing [addr, addr+n).
func (sp *Space) Resolve(addr Addr, n int64) (*Segment, error) {
	i := sort.Search(len(sp.segs), func(i int) bool {
		return sp.segs[i].base+Addr(sp.segs[i].size) > addr
	})
	if i < len(sp.segs) && sp.segs[i].Contains(addr, n) {
		return sp.segs[i], nil
	}
	return nil, fmt.Errorf("mem: access [%#x,+%d) hits no segment", addr, n)
}

// Segments returns all segments in address order. Callers must not
// mutate the slice.
func (sp *Space) Segments() []*Segment { return sp.segs }

// LoadWord8 reads the 8-byte word at addr — the access width of the
// remote atomic suite. Float64 segments require 8-alignment; byte
// segments are read little-endian.
func (sp *Space) LoadWord8(addr Addr) (uint64, error) {
	seg, err := sp.Resolve(addr, 8)
	if err != nil {
		return 0, err
	}
	return readElem8(seg, int64(addr-seg.base))
}

// StoreWord8 writes the 8-byte word at addr (see LoadWord8).
func (sp *Space) StoreWord8(addr Addr, v uint64) error {
	seg, err := sp.Resolve(addr, 8)
	if err != nil {
		return err
	}
	return writeElem8(seg, int64(addr-seg.base), v)
}

// readElem8 reads the 8 bytes at byte offset off within seg, which
// must be 8-aligned for Float64 segments.
func readElem8(seg *Segment, off int64) (uint64, error) {
	switch seg.kind {
	case Float64:
		if off%8 != 0 {
			return 0, fmt.Errorf("mem: misaligned 8-byte read at offset %d of float64 segment %q", off, seg.name)
		}
		return math.Float64bits(seg.f64[off/8]), nil
	default:
		return binary.LittleEndian.Uint64(seg.bytes[off:]), nil
	}
}

func writeElem8(seg *Segment, off int64, v uint64) error {
	switch seg.kind {
	case Float64:
		if off%8 != 0 {
			return fmt.Errorf("mem: misaligned 8-byte write at offset %d of float64 segment %q", off, seg.name)
		}
		seg.f64[off/8] = math.Float64frombits(v)
		return nil
	default:
		binary.LittleEndian.PutUint64(seg.bytes[off:], v)
		return nil
	}
}

// copyRun moves n contiguous bytes between segments starting at the
// given intra-segment byte offsets, with memmove semantics: the run is
// read completely before it is written. A run is a single item.
func copyRun(dst *Segment, doff int64, src *Segment, soff int64, n int64) {
	copyItems(dst, doff, 0, src, soff, 0, n, 1)
}

// Copy performs a contiguous DMA transfer of size bytes from
// (srcSpace, srcAddr) to (dstSpace, dstAddr). Source and destination
// may belong to different cells; the MSC+ receive DMA is exactly this
// operation on the destination cell.
func Copy(dst *Space, dstAddr Addr, src *Space, srcAddr Addr, size int64) error {
	if size < 0 {
		return fmt.Errorf("mem: negative copy size %d", size)
	}
	if size == 0 {
		return nil
	}
	sseg, err := src.Resolve(srcAddr, size)
	if err != nil {
		return fmt.Errorf("mem: copy source: %w", err)
	}
	dseg, err := dst.Resolve(dstAddr, size)
	if err != nil {
		return fmt.Errorf("mem: copy destination: %w", err)
	}
	return copyStrideSegs(dseg, int64(dstAddr-dseg.base), Contiguous(size), sseg, int64(srcAddr-sseg.base), Contiguous(size))
}

// Stride describes one side of a one-dimensional stride transfer
// (Figure 3): Count items of ItemSize bytes, with Skip bytes of gap
// between the end of one item and the start of the next.
type Stride struct {
	ItemSize int64
	Count    int64
	Skip     int64
}

// Contiguous returns the Stride describing a plain transfer of size
// bytes (one item, no skip).
func Contiguous(size int64) Stride { return Stride{ItemSize: size, Count: 1} }

// Total reports the payload bytes the pattern moves.
func (s Stride) Total() int64 { return s.ItemSize * s.Count }

// Extent reports the bytes of address space the pattern touches,
// including gaps (but not a trailing gap).
func (s Stride) Extent() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Count*s.ItemSize + (s.Count-1)*s.Skip
}

// Validate rejects patterns the hardware cannot express, including
// those whose Total or Extent does not fit an int64: a wrapped Total
// would pass every size check downstream and move the wrong bytes.
func (s Stride) Validate() error {
	if s.ItemSize <= 0 || s.Count <= 0 || s.Skip < 0 {
		return fmt.Errorf("mem: invalid stride %+v", s)
	}
	totalHi, total := bits.Mul64(uint64(s.ItemSize), uint64(s.Count))
	gapsHi, gaps := bits.Mul64(uint64(s.Count-1), uint64(s.Skip))
	extent, carry := bits.Add64(total, gaps, 0)
	if totalHi|gapsHi|carry != 0 || extent > math.MaxInt64 {
		return fmt.Errorf("mem: stride %+v overflows the address space", s)
	}
	return nil
}

// normal folds a side without gaps into one item: it touches a single
// contiguous range, as a pattern of one item does.
func (s Stride) normal() Stride {
	if s.Count > 1 && s.Skip == 0 {
		return Contiguous(s.Total())
	}
	return s
}

// checkWords enforces the word rule on one side of a transfer that
// touches a Float64 segment. Such a transfer moves whole 8-byte words,
// so on both sides the offset, the item size and, with more than one
// item, the skip must be multiples of 8.
func checkWords(side string, seg *Segment, off int64, pat Stride) error {
	if off%8 != 0 || pat.ItemSize%8 != 0 || (pat.Count > 1 && pat.Skip%8 != 0) {
		return fmt.Errorf("mem: misaligned %s %+v at offset %d of %s segment %q: a transfer touching a float64 segment moves whole 8-byte words",
			side, pat, off, seg.kind, seg.name)
	}
	return nil
}

// CopyStride performs a stride DMA transfer: the source pattern is
// read item by item and the stream of payload bytes is written into
// the destination pattern. As in Figure 3, the item sizes of the two
// sides may differ (send_item_size=2,cnt=3 feeding recv_item_size=3,
// cnt=2); only the payload totals must match.
func CopyStride(dst *Space, dstAddr Addr, dstPat Stride, src *Space, srcAddr Addr, srcPat Stride) error {
	if err := srcPat.Validate(); err != nil {
		return err
	}
	if err := dstPat.Validate(); err != nil {
		return err
	}
	if srcPat.Total() != dstPat.Total() {
		return fmt.Errorf("mem: stride payload mismatch: send %d bytes, recv %d bytes", srcPat.Total(), dstPat.Total())
	}
	sseg, err := src.Resolve(srcAddr, srcPat.Extent())
	if err != nil {
		return fmt.Errorf("mem: stride source: %w", err)
	}
	dseg, err := dst.Resolve(dstAddr, dstPat.Extent())
	if err != nil {
		return fmt.Errorf("mem: stride destination: %w", err)
	}
	return copyStrideSegs(dseg, int64(dstAddr-dseg.base), dstPat, sseg, int64(srcAddr-sseg.base), srcPat)
}

// copyStrideSegs is the DMA engine over resolved segments: the source
// pattern at soff within sseg streams into the destination pattern at
// doff within dseg. Patterns must already be validated, total-matched
// and inside their segments. Everything that depends on the shape of
// the transfer or the representation of the segments is decided here,
// once, and the loop that follows only moves data.
//
// Alignment first: the word rule (checkWords) covers the whole
// pattern, so a rejected transfer has moved nothing.
//
// Normal form: a side with one item or no skip is one contiguous
// range, so every transfer is one of
//
//	contiguous <- contiguous   one copyRun of the total
//	contiguous <- strided      gather  ┐ copyItems: n items of one
//	strided    <- contiguous   scatter ├ size, each side advancing
//	strided    <- strided, equal items ┘ by its own step
//	strided    <- strided, unequal items (Figure 3's 2x3 into 3x2):
//	                           copySplit cuts the stream at the item
//	                           boundaries of both sides
//
// Only the last needs to track a position inside two items at once;
// it is chosen by the patterns the command carries and by nothing
// else.
//
// Order and overlap: data moves in runs, a run being the bytes between
// consecutive item boundaries of either side. Runs move in ascending
// order and each is read completely before it is written. That is
// observable only when source and destination overlap inside one
// segment, and there folding a skip-free side would merge its runs, so
// an overlapping transfer keeps the patterns as given.
func copyStrideSegs(dseg *Segment, doff int64, dstPat Stride, sseg *Segment, soff int64, srcPat Stride) error {
	if dseg.kind == Float64 || sseg.kind == Float64 {
		if err := checkWords("source", sseg, soff, srcPat); err != nil {
			return err
		}
		if err := checkWords("destination", dseg, doff, dstPat); err != nil {
			return err
		}
	}
	src, dst := srcPat, dstPat
	if overlap := dseg == sseg && doff < soff+src.Extent() && soff < doff+dst.Extent(); !overlap {
		src, dst = src.normal(), dst.normal()
	}
	switch {
	case src.Count == 1 && dst.Count == 1:
		copyRun(dseg, doff, sseg, soff, src.ItemSize)
	case dst.Count == 1:
		copyItems(dseg, doff, src.ItemSize, sseg, soff, src.ItemSize+src.Skip, src.ItemSize, src.Count)
	case src.Count == 1:
		copyItems(dseg, doff, dst.ItemSize+dst.Skip, sseg, soff, dst.ItemSize, dst.ItemSize, dst.Count)
	case src.ItemSize == dst.ItemSize:
		copyItems(dseg, doff, dst.ItemSize+dst.Skip, sseg, soff, src.ItemSize+src.Skip, src.ItemSize, src.Count)
	default:
		copySplit(dseg, doff, dst, sseg, soff, src)
	}
	return nil
}

// copyItems moves n items of item bytes, the i-th from byte offset
// soff+i*sstep of sseg to doff+i*dstep of dseg, in ascending order.
// It takes the two backing slices once and hands them to the kernel
// for the kind pair, which in turn picks its loop by item size:
//
//	                   item == 8                 any other item
//	bytes   <- bytes   one 8-byte load/store     copy of a window
//	float64 <- float64 d[i] = s[j]               copy of a window
//	cross-kind         Float64bits / Float64frombits, word by word
//
// The 8-byte item is the Fortran REAL*8 element of every column
// exchange; it must not cost a memmove call.
func copyItems(dseg *Segment, doff, dstep int64, sseg *Segment, soff, sstep int64, item, n int64) {
	switch {
	case dseg.kind == Bytes && sseg.kind == Bytes:
		itemsBytes(dseg.bytes, doff, dstep, sseg.bytes, soff, sstep, item, n)
	case dseg.kind == Float64 && sseg.kind == Float64:
		itemsWords(dseg.f64, doff/8, dstep/8, sseg.f64, soff/8, sstep/8, item/8, n)
	case dseg.kind == Float64:
		itemsBytesToWords(dseg.f64, doff/8, dstep/8, sseg.bytes, soff, sstep, item/8, n)
	default:
		itemsWordsToBytes(dseg.bytes, doff, dstep, sseg.f64, soff/8, sstep/8, item/8, n)
	}
}

// The kernels. Byte-side positions and steps are in bytes, word-side
// ones (and w, the item size of a kernel with a word side) in words.
// Each is a function of its own so that its loops keep their few
// variables in registers.

func itemsBytes(d []byte, do, dstep int64, s []byte, so, sstep int64, item, n int64) {
	if item == 8 {
		for ; n > 0; n-- {
			// Full slice expressions: one bounds check each, and the
			// load and store compile to a single MOVQ pair.
			binary.LittleEndian.PutUint64(d[do:do+8:do+8], binary.LittleEndian.Uint64(s[so:so+8:so+8]))
			do += dstep
			so += sstep
		}
		return
	}
	for ; n > 0; n-- {
		copy(d[do:do+item], s[so:so+item])
		do += dstep
		so += sstep
	}
}

func itemsWords(d []float64, di, dstep int64, s []float64, si, sstep int64, w, n int64) {
	if w == 1 {
		for ; n > 0; n-- {
			d[di] = s[si]
			di += dstep
			si += sstep
		}
		return
	}
	for ; n > 0; n-- {
		copy(d[di:di+w], s[si:si+w])
		di += dstep
		si += sstep
	}
}

func itemsBytesToWords(d []float64, di, dstep int64, s []byte, so, sstep int64, w, n int64) {
	for ; n > 0; n-- {
		for k := int64(0); k < w; k++ {
			b := so + 8*k
			d[di+k] = math.Float64frombits(binary.LittleEndian.Uint64(s[b : b+8 : b+8]))
		}
		di += dstep
		so += sstep
	}
}

func itemsWordsToBytes(d []byte, do, dstep int64, s []float64, si, sstep int64, w, n int64) {
	for ; n > 0; n-- {
		for k := int64(0); k < w; k++ {
			b := do + 8*k
			binary.LittleEndian.PutUint64(d[b:b+8:b+8], math.Float64bits(s[si+k]))
		}
		do += dstep
		si += sstep
	}
}

// copySplit is the general stride loop: both sides strided with
// different item sizes, so the stream is cut into runs at the item
// boundaries of both. It is also what an overlapping transfer runs
// through when its patterns are not in normal form.
func copySplit(dseg *Segment, doff int64, dstPat Stride, sseg *Segment, soff int64, srcPat Stride) {
	srun, drun := srcPat.ItemSize, dstPat.ItemSize // bytes left in the current item
	for remaining := srcPat.Total(); remaining > 0; {
		run := min(srun, drun)
		copyRun(dseg, doff, sseg, soff, run)
		remaining -= run
		soff += run
		doff += run
		if srun -= run; srun == 0 {
			srun = srcPat.ItemSize
			soff += srcPat.Skip
		}
		if drun -= run; drun == 0 {
			drun = dstPat.ItemSize
			doff += dstPat.Skip
		}
	}
}
