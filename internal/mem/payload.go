package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Payload is data in flight: the send DMA captures the source pattern
// into a private buffer at send time (so the sender may reuse the
// source area as soon as its send flag rises, per S3.1), and the
// receive DMA delivers it into the destination pattern on arrival.
//
// The buffer is owned by the payload itself (no per-message address
// space), and payloads recycle through a pool so the PUT fast path
// does not allocate: capture reuses a pooled buffer, and the machine's
// synchronous delivery paths hand it back with Release.
type Payload struct {
	// seg is the private backing buffer, preserving the source
	// segment's representation so numeric data never round-trips
	// through bytes. Its base is always 0.
	seg  Segment
	size int64
	// san carries the producer's released sanitizer clock for
	// payloads that hop threads asynchronously (SEND ring buffers,
	// broadcasts, remote-load replies); nil when not sanitized.
	san any
	// pooled marks a payload checked out of the capture pool, so the
	// in-flight accounting survives a stray Release of a heap-fresh
	// payload (clones, views) without going negative.
	pooled bool
}

// payloadPool recycles payload buffers across captures.
var payloadPool = sync.Pool{New: func() any { return new(Payload) }}

// inFlight counts pool-backed payloads captured but not yet Released.
// Quiesce tests use it to assert delivery paths hand every capture
// back: after a drained run the count must be zero, or a payload
// leaked out of the pool's custody.
var inFlight atomic.Int64

// PayloadsInFlight reports the number of pooled payload buffers
// currently captured and not yet released.
func PayloadsInFlight() int64 { return inFlight.Load() }

// SetSan attaches a sanitizer release token to the payload.
func (p *Payload) SetSan(tok any) {
	if p != nil {
		p.san = tok
	}
}

// San returns the attached sanitizer token, if any.
func (p *Payload) San() any {
	if p == nil {
		return nil
	}
	return p.san
}

// Size reports the payload length in bytes.
func (p *Payload) Size() int64 {
	if p == nil {
		return 0
	}
	return p.size
}

// reset prepares the payload to hold size bytes of the given kind,
// reusing buffer capacity from a previous life when possible.
func (p *Payload) reset(kind Kind, size int64) {
	p.size = size
	p.san = nil
	p.seg.name = "payload"
	p.seg.base = 0
	p.seg.size = size
	p.seg.kind = kind
	// Grow only the active representation; the other keeps its
	// capacity for a future capture of that kind.
	switch kind {
	case Float64:
		n := int(size / 8)
		if cap(p.seg.f64) < n {
			p.seg.f64 = make([]float64, n)
		} else {
			p.seg.f64 = p.seg.f64[:n]
		}
	default:
		if cap(p.seg.bytes) < int(size) {
			p.seg.bytes = make([]byte, size)
		} else {
			p.seg.bytes = p.seg.bytes[:size]
		}
	}
}

// Release returns the payload's buffer to the capture pool. Only a
// caller that knows the payload is dead may release it: the machine's
// synchronous delivery paths (PUT, remote store, GET reply) qualify;
// payloads parked in ring buffers, broadcast inboxes or reply
// channels must be left to the garbage collector.
func (p *Payload) Release() {
	if p == nil {
		return
	}
	p.san = nil
	if p.pooled {
		p.pooled = false
		inFlight.Add(-1)
	}
	payloadPool.Put(p)
}

// Sum64 hashes the payload contents for the reliable-delivery
// checksum: FNV-1a folding one little-endian 8-byte word per step
// (h = (h ^ w) * prime) and the tail bytes singly, so a Bytes and a
// Float64 payload holding the same bytes hash alike. Multiplication
// by the odd prime is a bijection on uint64, so two payloads that
// differ inside a single word never collide. A nil or empty payload
// hashes to the FNV offset basis. Allocation-free.
func (p *Payload) Sum64() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	if p == nil {
		return h
	}
	if p.seg.kind == Float64 {
		for _, v := range p.seg.f64[:p.size/8] {
			h = (h ^ math.Float64bits(v)) * prime
		}
		return h
	}
	b := p.seg.bytes[:p.size]
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// CorruptClone returns a fresh copy of the payload with one bit
// flipped, selected by bit modulo the payload length. The original is
// untouched (the fault layer delivers the corrupted clone and keeps
// the pristine payload for retransmission). The clone is heap-fresh,
// never pooled: its lifetime belongs to the delivery that rejects it.
func (p *Payload) CorruptClone(bit uint64) *Payload {
	if p == nil || p.size == 0 {
		return nil
	}
	q := new(Payload)
	q.reset(p.seg.kind, p.size)
	q.san = p.san
	if p.seg.kind == Float64 {
		copy(q.seg.f64, p.seg.f64[:p.size/8])
		i := bit % uint64(p.size*8)
		q.seg.f64[i/64] = math.Float64frombits(math.Float64bits(q.seg.f64[i/64]) ^ 1<<(i%64))
		return q
	}
	copy(q.seg.bytes, p.seg.bytes[:p.size])
	i := bit % uint64(p.size*8)
	q.seg.bytes[i/8] ^= 1 << (i % 8)
	return q
}

// CapturePayload reads srcPat at (src, addr) into a payload buffer,
// preserving the source segment's representation so numeric data
// never round-trips through bytes.
func CapturePayload(src *Space, addr Addr, srcPat Stride) (*Payload, error) {
	if err := srcPat.Validate(); err != nil {
		return nil, err
	}
	total := srcPat.Total()
	seg, err := src.Resolve(addr, srcPat.Extent())
	if err != nil {
		return nil, fmt.Errorf("mem: capture: %w", err)
	}
	p := payloadPool.Get().(*Payload)
	if !p.pooled {
		p.pooled = true
		inFlight.Add(1)
	}
	p.reset(seg.Kind(), total)
	if err := copyStrideSegs(&p.seg, 0, Contiguous(total), seg, int64(addr-seg.base), srcPat); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// Deliver writes the payload into dstPat at (dst, addr) — the receive
// DMA. A nil payload (zero-length transfer) is a no-op.
func (p *Payload) Deliver(dst *Space, addr Addr, dstPat Stride) error {
	if p == nil {
		return nil
	}
	if err := dstPat.Validate(); err != nil {
		return err
	}
	if dstPat.Total() != p.size {
		return fmt.Errorf("mem: deliver: pattern wants %d bytes, payload has %d", dstPat.Total(), p.size)
	}
	dseg, err := dst.Resolve(addr, dstPat.Extent())
	if err != nil {
		return fmt.Errorf("mem: deliver: %w", err)
	}
	return copyStrideSegs(dseg, int64(addr-dseg.base), dstPat, &p.seg, 0, Contiguous(p.size))
}

// SetView repoints the payload at caller-owned bytes without copying —
// the DSM page cache's zero-allocation hit path. The payload must be a
// long-lived value the caller owns (never pooled, never Released): the
// view aliases b, so it is only valid until the caller mutates or
// replaces the backing bytes.
func (p *Payload) SetView(b []byte) {
	p.size = int64(len(b))
	p.san = nil
	p.seg.name = "view"
	p.seg.base = 0
	p.seg.size = int64(len(b))
	p.seg.kind = Bytes
	p.seg.bytes = b
	p.seg.f64 = nil
}

// Float64s returns the payload as float64 values when it was captured
// from a Float64 segment; ok reports whether that representation is
// available. Used by reduction operators that combine in-flight data.
func (p *Payload) Float64s() (vals []float64, ok bool) {
	if p == nil || p.seg.kind != Float64 {
		return nil, false
	}
	return p.seg.f64[:p.size/8], true
}

// Bytes returns the payload as raw bytes when it was captured from a
// Bytes segment.
func (p *Payload) Bytes() (data []byte, ok bool) {
	if p == nil || p.seg.kind != Bytes {
		return nil, false
	}
	return p.seg.bytes[:p.size], true
}
