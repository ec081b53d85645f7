package pgas

import (
	"encoding/binary"
	"fmt"

	"ap1000plus/internal/core"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/topology"
)

// The aggregation layer is the repo's exstack: fine-grained PGAS
// operations are not issued one message at a time but packed into
// per-destination buffers of 3-word packets, and exchanged in bulk
// synchronous rounds (Advance). The buffer is the outgoing region
// itself: a push encodes its packet in place at the destination's
// cursor in the PE's out segment, and only packets beyond the
// region's capacity wait in a per-destination overflow queue, which
// refills the region in FIFO order once the round's send flag shows
// the DMA has captured it. One round ships at most one PUT per
// (src,dst) pair — so a round's wire cost is O(P) messages per cell
// regardless of how many fine-grained operations it carries — into a
// per-source mailbox region on the destination, where the owner
// applies the packets to its partition locally. Fetching operations
// (Get, FetchAdd) are split-phase: the request travels in one round,
// the owner pushes the response packet, and it arrives in a later
// round, completing a caller-registered pointer or callback. Flush
// keeps advancing until a global reduction shows no cell holds queued
// or outstanding work.
//
// Rounds are collective and deterministically ordered: every cell
// sends exactly one region to every other cell per round (a count of
// zero packets still sends the count word, so the receive-flag target
// is exactly rounds*(P-1)), applies regions in source order, and
// barriers before the next round may reuse the regions. The final
// memory image therefore does not depend on wire timing — the
// property the naive-vs-aggregated conformance suite pins.

// aggregation packet opcodes (w0 bits 0..3).
const (
	aopPut = iota + 1
	aopAdd
	aopMin
	aopMax
	aopGet
	aopFetchAdd
	aopResp
)

// packetWords is the fixed packet size: w0 = op|arr|slot, w1 = value,
// w2 = response tag.
const packetWords = 3

// DefaultAggPackets is the default per-destination region capacity.
const DefaultAggPackets = 256

// tagChunk is the number of split-phase completions allocated at a
// time. Chunks never move, so a tag addresses its entry as
// tab[tag/tagChunk][tag%tagChunk].
const tagChunk = 1024

// slot field bounds: op takes bits 0..3, array id bits 4..15, slot
// bits 16..63.
const maxSlot = int64(1) << 47

// Aggregator owns the machine-wide exchange state: the symmetric
// mailbox segments (P regions per cell, one per source) and the
// symmetric mailbox flag. Build once after NewHeap, then Bind a PE on
// every cell.
type Aggregator struct {
	h        *Heap
	packets  int64
	regBytes int64
	mailSegs []*mem.Segment
	mailB    [][]byte
	mbFlag   mc.FlagID
	pes      []*AggPE
}

// NewAggregator builds the exchange buffers: packets is the
// per-destination region capacity (DefaultAggPackets if <= 0).
func NewAggregator(h *Heap, packets int) (*Aggregator, error) {
	if packets <= 0 {
		packets = DefaultAggPackets
	}
	ag := &Aggregator{
		h: h, packets: int64(packets),
		regBytes: (1 + packetWords*int64(packets)) * 8,
		mailSegs: make([]*mem.Segment, h.np),
		mailB:    make([][]byte, h.np),
		pes:      make([]*AggPE, h.np),
	}
	for id := 0; id < h.np; id++ {
		cell := h.m.Cell(topology.CellID(id))
		seg, b, err := cell.AllocBytes("pgas.aggmail", int64(h.np)*ag.regBytes)
		if err != nil {
			return nil, fmt.Errorf("pgas: NewAggregator: cell %d: %w", id, err)
		}
		ag.mailSegs[id], ag.mailB[id] = seg, b
		// The mailbox flag must carry the same id on every cell: a
		// sender raises it by number on the destination. Lockstep
		// allocation guarantees it as long as heap construction is
		// itself symmetric.
		f := cell.Flags.Alloc()
		if id == 0 {
			ag.mbFlag = f
		} else if f != ag.mbFlag {
			return nil, fmt.Errorf("pgas: NewAggregator: asymmetric flag allocation (cell %d got %d, cell 0 got %d)", id, f, ag.mbFlag)
		}
	}
	return ag, nil
}

// PE returns rank's bound AggPE, once Bind has run.
func (ag *Aggregator) PE(rank int) *AggPE { return ag.pes[rank] }

// Quiesced checks every bound AggPE drained (no queued packets, no
// outstanding fetches, no leaked response tags).
func (ag *Aggregator) Quiesced() error {
	for _, a := range ag.pes {
		if a == nil {
			continue
		}
		if err := a.Quiesced(); err != nil {
			return err
		}
	}
	return nil
}

// aggWait is a registered completion for a split-phase fetch: exactly
// one of ptr/fn is set.
type aggWait struct {
	ptr *int64
	fn  func(int64)
}

// AggPE is one cell's aggregation context. Use it only from that
// cell's SPMD goroutine; Advance and Flush are collective over all
// cells.
type AggPE struct {
	ag *Aggregator
	pe *PE
	me int
	np int

	outSeg   *mem.Segment
	outB     []byte
	sendFlag mc.FlagID
	rounds   int64

	// fill[d] counts the packets encoded in region d of outB this
	// round. Packets past the region's capacity wait in over[d]
	// (flattened 3-word packets, consumed from overHead[d]) and refill
	// the region in FIFO order after it ships. Push never blocks.
	// queued counts packed and overflowed packets until they ship.
	fill     []int64
	over     [][]uint64
	overHead []int
	queued   int64

	// Split-phase fetch completions: fixed chunks of tagChunk entries
	// addressed by the tag riding the packet, recycled through a free
	// list that grows a chunk at a time.
	tab         [][]aggWait
	free        []int32
	outstanding int64

	// slotsOn caches each array's SlotsOn(me), by array id.
	slotsOn []int64

	obs      *obs.CellCounters
	applyErr error
}

// Bind builds the aggregation context for one PE. Like NewPE, call it
// for every cell in rank order.
func (ag *Aggregator) Bind(pe *PE) (*AggPE, error) {
	a := &AggPE{
		ag: ag, pe: pe, me: pe.me, np: pe.np,
		fill:     make([]int64, pe.np),
		over:     make([][]uint64, pe.np),
		overHead: make([]int, pe.np),
	}
	var err error
	a.outSeg, a.outB, err = pe.cell.AllocBytes("pgas.aggout", int64(pe.np)*ag.regBytes)
	if err != nil {
		return nil, fmt.Errorf("pgas: Bind cell %d: %w", pe.me, err)
	}
	a.sendFlag = pe.cell.Flags.Alloc()
	if o := ag.h.m.Observer(); o != nil {
		a.obs = o.Cell(pe.me)
	}
	ag.pes[pe.me] = a
	return a, nil
}

// PE returns the underlying naive PE.
func (a *AggPE) PE() *PE { return a.pe }

// Pending reports buffered packets plus outstanding fetches.
func (a *AggPE) Pending() int64 { return a.queued + a.outstanding }

// Rounds reports how many exchange rounds this PE has run.
func (a *AggPE) Rounds() int64 { return a.rounds }

// push buffers one packet for the owner of (s, i).
func (a *AggPE) push(op uint64, s *Shared, i, val int64, tag uint64) error {
	if err := s.lay.Check(i); err != nil {
		return err
	}
	slot := s.lay.Slot(i)
	if slot >= maxSlot {
		return fmt.Errorf("pgas: %s: slot %d exceeds packet field", s.name, slot)
	}
	a.pack(int(s.lay.Owner(i)), op|uint64(s.id)<<4|uint64(slot)<<16, uint64(val), tag)
	return nil
}

// pack encodes one packet at d's region cursor, or queues it behind
// the region when the region is full.
func (a *AggPE) pack(d int, w0, w1, w2 uint64) {
	if n := a.fill[d]; n < a.ag.packets {
		off := int64(d)*a.ag.regBytes + 8 + n*packetWords*8
		binary.LittleEndian.PutUint64(a.outB[off:], w0)
		binary.LittleEndian.PutUint64(a.outB[off+8:], w1)
		binary.LittleEndian.PutUint64(a.outB[off+16:], w2)
		a.fill[d] = n + 1
	} else {
		a.over[d] = append(a.over[d], w0, w1, w2)
	}
	a.queued++
	if a.obs != nil {
		a.obs.AggPushes.Add(1)
	}
}

// Put buffers a store of v into element i.
func (a *AggPE) Put(s *Shared, i, v int64) error { return a.push(aopPut, s, i, v, 0) }

// Add buffers an atomic add of delta to element i.
func (a *AggPE) Add(s *Shared, i, delta int64) error { return a.push(aopAdd, s, i, delta, 0) }

// Min buffers an atomic signed min of element i against v.
func (a *AggPE) Min(s *Shared, i, v int64) error { return a.push(aopMin, s, i, v, 0) }

// Max buffers an atomic signed max of element i against v.
func (a *AggPE) Max(s *Shared, i, v int64) error { return a.push(aopMax, s, i, v, 0) }

// newTag registers a completion and returns its tag. Freed tags are
// reused last-in first-out; when none is free a new chunk's tags are
// handed out in ascending order.
func (a *AggPE) newTag(w aggWait) uint64 {
	n := len(a.free)
	if n == 0 {
		base := int32(len(a.tab) * tagChunk)
		a.tab = append(a.tab, make([]aggWait, tagChunk))
		a.free = make([]int32, 0, len(a.tab)*tagChunk)
		for k := int32(tagChunk - 1); k >= 0; k-- {
			a.free = append(a.free, base+k)
		}
		n = tagChunk
	}
	idx := a.free[n-1]
	a.free = a.free[:n-1]
	a.tab[idx/tagChunk][idx%tagChunk] = w
	a.outstanding++
	return uint64(idx)
}

// Get buffers a split-phase load of element i; *dst is filled by the
// round that carries the response (guaranteed complete after Flush).
func (a *AggPE) Get(s *Shared, i int64, dst *int64) error {
	if dst == nil {
		return fmt.Errorf("pgas: Get %s: nil destination", s.name)
	}
	return a.push(aopGet, s, i, 0, a.newTag(aggWait{ptr: dst}))
}

// FetchAdd buffers a split-phase fetch-and-add of delta to element i;
// fn runs with the previous value when the response arrives, and may
// itself push further aggregated operations (the conveyor pattern).
func (a *AggPE) FetchAdd(s *Shared, i, delta int64, fn func(old int64)) error {
	if fn == nil {
		return fmt.Errorf("pgas: FetchAdd %s: nil completion", s.name)
	}
	return a.push(aopFetchAdd, s, i, delta, a.newTag(aggWait{fn: fn}))
}

// respond pushes a response packet back to src's completion tag.
func (a *AggPE) respond(src int, tag uint64, val int64) {
	a.pack(src, aopResp, uint64(val), tag)
}

// ship seals region d for sending: it writes the count word and
// returns the packet count and the region's offset in outB. The
// packets leave the queued count as they ship.
func (a *AggPE) ship(d int) (n, base int64) {
	n, base = a.fill[d], int64(d)*a.ag.regBytes
	binary.LittleEndian.PutUint64(a.outB[base:], uint64(n))
	a.queued -= n
	return n, base
}

// refill empties region d, whose packets have shipped, and moves up
// to a region's capacity of d's overflow into it in FIFO order.
func (a *AggPE) refill(d int) {
	a.fill[d] = 0
	h, q := a.overHead[d], a.over[d]
	if h == len(q) {
		return
	}
	n := int64(len(q)-h) / packetWords
	if n > a.ag.packets {
		n = a.ag.packets
	}
	reg := a.outB[int64(d)*a.ag.regBytes+8:]
	for k := int64(0); k < n*packetWords; k++ {
		binary.LittleEndian.PutUint64(reg[k*8:], q[h+int(k)])
	}
	a.fill[d] = n
	if h += int(n * packetWords); h == len(q) {
		a.over[d], h = q[:0], 0
	}
	a.overHead[d] = h
}

// Advance runs one collective exchange round: pack and ship one
// region to every destination (one batched doorbell), wait for the
// round's P-1 arrivals, apply the received packets in source order,
// and barrier. Every cell must call Advance the same number of times
// — Flush does this bookkeeping for you.
func (a *AggPE) Advance() error {
	if a.applyErr != nil {
		return a.applyErr
	}
	a.rounds++
	sent := int64(0)
	b := a.pe.comm.Batch()
	for d := 0; d < a.np; d++ {
		if d == a.me {
			continue
		}
		n, base := a.ship(d)
		sent += n
		size := (1 + n*packetWords) * 8
		a.pe.cell.SanWrite(a.outSeg.Base()+mem.Addr(base), mem.Contiguous(size), "pgas agg pack")
		b.Put(core.Transfer{
			To:     topology.CellID(d),
			Remote: a.ag.mailSegs[d].Base() + mem.Addr(int64(a.me)*a.ag.regBytes),
			Local:  a.outSeg.Base() + mem.Addr(base),
			Size:   size, SendFlag: a.sendFlag, RecvFlag: a.ag.mbFlag,
		})
	}
	if err := b.Commit(); err != nil {
		return err
	}
	// My own packets skip the wire: one copy moves the self region
	// into my mailbox, and the region refills at once because no DMA
	// reads it. Applying them in place instead would let a response
	// to myself overwrite the region being applied.
	n, base := a.ship(a.me)
	copy(a.ag.mailB[a.me][base:], a.outB[base:base+(1+n*packetWords)*8])
	a.refill(a.me)
	// Exact flag accounting: every peer sends exactly one region per
	// round (empty rounds still ship the count word), so arrival and
	// send-completion targets are both rounds*(P-1).
	target := a.rounds * int64(a.np-1)
	a.pe.comm.WaitFlag(a.ag.mbFlag, target)
	a.pe.comm.WaitFlag(a.sendFlag, target)
	// The send flag proves every outgoing region captured: from here
	// they take the next round's packets, overflow first.
	for d := 0; d < a.np; d++ {
		if d != a.me {
			a.refill(d)
		}
	}
	applied := int64(0)
	for src := 0; src < a.np; src++ {
		applied += a.apply(src)
	}
	if a.obs != nil {
		a.obs.AggAdvances.Add(1)
		a.obs.AggPacketsSent.Add(sent)
		a.obs.AggApplied.Add(applied)
	}
	// No cell starts the next round (reusing mailbox regions) until
	// every cell has applied this one.
	a.pe.comm.Barrier()
	return a.applyErr
}

// apply decodes one source's mailbox region and applies its packets
// to my partition.
func (a *AggPE) apply(src int) int64 {
	base := int64(src) * a.ag.regBytes
	reg := a.ag.mailB[a.me][base:]
	cnt := int64(binary.LittleEndian.Uint64(reg))
	a.pe.cell.SanRead(a.ag.mailSegs[a.me].Base()+mem.Addr(base), mem.Contiguous((1+cnt*packetWords)*8), "pgas agg apply")
	for k := int64(0); k < cnt; k++ {
		w0 := binary.LittleEndian.Uint64(reg[8+k*packetWords*8:])
		val := int64(binary.LittleEndian.Uint64(reg[16+k*packetWords*8:]))
		tag := binary.LittleEndian.Uint64(reg[24+k*packetWords*8:])
		op := w0 & 0xf
		if op == aopResp {
			idx := int32(tag)
			e := &a.tab[idx/tagChunk][idx%tagChunk]
			w := *e
			*e = aggWait{}
			a.free = append(a.free, idx)
			a.outstanding--
			if w.ptr != nil {
				*w.ptr = val
			}
			if w.fn != nil {
				w.fn(val)
			}
			continue
		}
		arr := int(w0 >> 4 & 0xfff)
		if arr >= len(a.slotsOn) {
			arrays := a.ag.h.arrays
			if arr >= len(arrays) {
				a.fail(fmt.Errorf("pgas: apply: bad array id %d from cell %d", arr, src))
				return k
			}
			for _, s := range arrays[len(a.slotsOn):] {
				a.slotsOn = append(a.slotsOn, s.lay.SlotsOn(int64(a.me)))
			}
		}
		s := a.ag.h.arrays[arr]
		slot := int64(w0 >> 16)
		if slot >= a.slotsOn[arr] {
			a.fail(fmt.Errorf("pgas: apply: %s slot %d out of range on cell %d (from cell %d)", s.name, slot, a.me, src))
			return k
		}
		switch op {
		case aopPut:
			a.pe.setLocalWord(s, slot, val)
		case aopAdd, aopMin, aopMax:
			old := a.pe.localWord(s, slot)
			stored, _ := mc.ApplyAtomic(aggAtomicOp(op), old, val, 0)
			a.pe.setLocalWord(s, slot, stored)
		case aopGet:
			a.respond(src, tag, a.pe.localWord(s, slot))
		case aopFetchAdd:
			old := a.pe.localWord(s, slot)
			a.pe.setLocalWord(s, slot, old+val)
			a.respond(src, tag, old)
		default:
			a.fail(fmt.Errorf("pgas: apply: bad opcode %d from cell %d", op, src))
			return k
		}
	}
	return cnt
}

// aggAtomicOp maps a non-fetching packet opcode onto the MC's atomic
// suite, so aggregated updates apply bit-identically to naive ones.
func aggAtomicOp(op uint64) mc.AtomicOp {
	switch op {
	case aopMin:
		return mc.AtomicMin
	case aopMax:
		return mc.AtomicMax
	default:
		return mc.AtomicAdd
	}
}

// fail latches the first apply error; subsequent Advance calls
// return it.
func (a *AggPE) fail(err error) {
	if a.applyErr == nil {
		a.applyErr = err
	}
}

// Flush advances until a global reduction shows no cell holds queued
// packets or outstanding fetches — every buffered operation applied,
// every response delivered. Collective; all cells must call it
// together.
func (a *AggPE) Flush() error {
	for {
		if err := a.Advance(); err != nil {
			return err
		}
		if a.pe.ReduceAdd(float64(a.queued+a.outstanding)) == 0 {
			return nil
		}
	}
}

// Quiesced verifies the drained invariant after a Flush: nothing
// buffered, nothing outstanding, every response tag back on the free
// list.
func (a *AggPE) Quiesced() error {
	if a.queued != 0 || a.outstanding != 0 {
		return fmt.Errorf("pgas: cell %d not quiesced: %d queued, %d outstanding", a.me, a.queued, a.outstanding)
	}
	for d := range a.fill {
		if a.fill[d] != 0 || len(a.over[d]) != 0 {
			return fmt.Errorf("pgas: cell %d not quiesced: dst %d holds %d packed packets and %d overflow words", a.me, d, a.fill[d], len(a.over[d]))
		}
	}
	if tags := len(a.tab) * tagChunk; len(a.free) != tags {
		return fmt.Errorf("pgas: cell %d not quiesced: %d of %d response tags leaked", a.me, tags-len(a.free), tags)
	}
	return nil
}
