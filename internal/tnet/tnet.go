// Package tnet models the AP1000+'s point-to-point torus network.
//
// The T-net routes statically (dimension order) and therefore
// delivers messages between a given pair of cells in order — the
// property S4.1's GET-as-acknowledge trick depends on. The functional
// simulator preserves that property structurally. Every packet with
// Src=A is transmitted by the one delivery worker that owns cell A,
// in A's command order, and then takes one of two routes:
//
//   - Inline: the destination's receive controller runs on the
//     calling goroutine before Send returns, so two messages from A to
//     B can never overtake each other.
//
//   - Over a link (SetRingWire): cells are partitioned over a small
//     number of delivery shards, and each ordered pair of shards gets
//     one RingLink. A packet from A to B in another shard is staged in
//     shard(A)'s outbox for shard(B); Flush publishes every staged
//     batch onto its (shard(A), shard(B)) link with one lock and one
//     doorbell, and B's owning shard delivers it. Outbox and link are
//     FIFO, so the A→B stream stays in order. Same-shard traffic is
//     delivered inline.
//
// A fault injector (SetFault) sits in front of both routes: it decides
// each transmission attempt's fate at the sender, puts the surviving
// copies on the packet's normal route, and Transmit reports the fate —
// the acknowledgement the reliable layer retransmits on.
//
// Link bandwidth (25 MB/s x 4 links per cell) and hop latency matter
// only to the timing model (MLSim); here the network accounts traffic
// statistics and hands packets to the destination's receive
// controller.
package tnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ap1000plus/internal/fault"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// LinkBandwidth is the physical per-link bandwidth in bytes/second
// (Table 1 and Figure 5: "25MB/s x 4").
const LinkBandwidth = 25 << 20

// Packet is a routed message: an MSC+ command header plus captured
// payload.
type Packet struct {
	Head    msc.Command
	Payload *mem.Payload
	// SanTid identifies the sanitizer thread executing this packet's
	// delivery (the sending controller — a sanitized machine delivers
	// inline). -1 when the machine is not sanitized.
	SanTid int
	// FreeOnDeliver transfers payload ownership to the wire, which
	// releases the payload to its pool after the destination's handler
	// returns — on whichever goroutine that is. Never set under a
	// fault plan: retransmission, duplicates on a link and the reorder
	// limbo need the payload alive.
	FreeOnDeliver bool
	// Inline delivers on the calling goroutine even where a link
	// exists, for control packets that must have been applied when
	// Transmit returns or that are sent from a goroutine which does
	// not own the source's shard (DSM invalidations and eviction
	// notices). Such a packet may overtake its stream's packets still
	// staged or on the link, and its handler runs off the
	// destination's own shard.
	Inline bool
}

// Handler consumes a packet at its destination cell — the receive
// controller of the destination's MSC+. It reports whether the packet
// was accepted (checksum verified, fresh or duplicate, DMA succeeded).
// Only an inline delivery's verdict reaches Transmit's caller; a
// packet that crossed a link is judged after Transmit has returned.
type Handler func(Packet) bool

// Stats aggregates network traffic.
type Stats struct {
	Messages  int64
	Bytes     int64 // payload bytes
	HopsTotal int64 // sum of routing distances, for mean distance
	// PerOp counts messages by operation.
	PerOp [msc.NumOps]int64
}

// MeanDistance reports the average routing distance in hops.
func (s Stats) MeanDistance() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.HopsTotal) / float64(s.Messages)
}

// Network is the T-net fabric connecting every cell's MSC+.
type Network struct {
	torus *topology.Torus
	// handlers, inj, ring and partOf are written only before traffic
	// flows (Attach, SetFault, SetRingWire, SetPartitions), so the hot
	// path reads them without a lock; mu guards set-up and limbo.
	mu       sync.Mutex
	handlers []Handler
	// stats is sharded by sending shard so the hot path takes no lock:
	// one shard on a bare network, one per delivery shard once
	// SetRingWire has armed the links.
	stats []wireShardStats
	// inj, when non-nil, decides a wire fate for every transmission
	// attempt (fault layer). limbo holds reordered packets per
	// (src, dst, class) stream; a held packet is released — late, hence
	// the reorder — right after the next delivered packet of its own
	// stream, or discarded by DropHeld when the sender gives the packet
	// up, which keeps every release on the stream's sending goroutine.
	inj   *fault.Injector
	limbo map[streamKey][]Packet
	// ring, when non-nil, carries cross-shard packets over per-shard-
	// pair links (SetRingWire).
	ring *ringWire
	// partOf, when non-nil, maps each cell to its machine partition;
	// a cross-partition Transmit panics — partitions have physically
	// disjoint T-net routing.
	partOf []int32
}

// ringWire is the link matrix: one RingLink per ordered shard pair, plus
// each shard's private staging and receive buffers.
type ringWire struct {
	shards int
	// links[consumer][producer]: the conduit from producing shard to
	// consuming shard.
	links [][]*RingLink
	// shard[s] is owned by shard s's delivery worker.
	shard []shardBufs
	// wake nudges a consuming shard's delivery worker after a flush
	// published onto one of its links.
	wake func(shard int)
	// track, when non-nil, counts undelivered cross-shard packets per
	// destination: charged when Flush publishes them, uncharged only
	// after their handlers have returned, so a drain barrier on it
	// cannot fire while a delivery is still executing. The machine
	// points it at the destination partition's quiesce counter so each
	// partition drains independently.
	track func(dst topology.CellID, delta int64)
}

// shardBufs is one delivery shard's private side of the link matrix.
// Only the shard's worker touches it: no atomics, no lock.
type shardBufs struct {
	// out[cons] stages cross-shard packets bound for consuming shard
	// cons until Flush; dirty lists the consumers with staged packets
	// in first-staged order.
	out   [][]Packet
	dirty []int
	// in receives DrainInbox's chunks; packets are delivered in place.
	in []Packet
	_  [64]byte
}

// wireShardStats is one shard's traffic counters, padded so shards do
// not false-share cache lines.
type wireShardStats struct {
	bytes atomic.Int64
	hops  atomic.Int64
	perOp [msc.NumOps]atomic.Int64
	_     [64]byte
}

// streamKey identifies one (src, dst, class) wire stream.
type streamKey struct {
	src, dst topology.CellID
	op       msc.Op
}

// New builds a T-net over the torus.
func New(t *topology.Torus) *Network {
	return &Network{torus: t, handlers: make([]Handler, t.Cells()), stats: make([]wireShardStats, 1)}
}

// Torus exposes the network geometry.
func (n *Network) Torus() *topology.Torus { return n.torus }

// Attach registers the receive controller for a cell. Must be called
// for every cell before traffic flows.
func (n *Network) Attach(id topology.CellID, h Handler) {
	if !n.torus.Valid(id) {
		panic(fmt.Sprintf("tnet: attach to invalid cell %d", id))
	}
	if h == nil {
		panic("tnet: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.handlers[id] != nil {
		panic(fmt.Sprintf("tnet: cell %d already attached", id))
	}
	n.handlers[id] = h
}

// SetPartitions installs the cell→partition map. A Transmit whose source
// and destination lie in different partitions panics: partitioned
// multi-user operation gives each partition a physically disjoint
// slice of the torus, so no route crosses the boundary. Install
// before traffic flows; nil restores the single-partition machine.
func (n *Network) SetPartitions(of []int32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if of != nil && len(of) != n.torus.Cells() {
		panic(fmt.Sprintf("tnet: partition map covers %d cells of %d", len(of), n.torus.Cells()))
	}
	n.partOf = of
}

// SetFault installs the fault injector; every subsequent Transmit asks
// it for a wire fate. Install before traffic flows.
func (n *Network) SetFault(inj *fault.Injector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inj = inj
	if inj != nil && n.limbo == nil {
		n.limbo = make(map[streamKey][]Packet)
	}
}

// SetRingWire arms the link matrix: cells are partitioned over shards
// delivery shards (cell id mod shards), each ordered shard pair gets
// one RingLink with a linkCap-deep fast path, DrainInbox moves at most
// linkCap packets per lock, and wake is called with the consuming
// shard once per Flush that published to it. track, when non-nil,
// counts undelivered cross-shard packets per destination cell
// (charged by Flush, uncharged after the handlers return) — the
// machine's per-partition drain doorbell. mutexLinks must be false:
// the per-packet reference build it selected is gone (the parameter
// stays for bench/probes.go). Install before traffic flows.
func (n *Network) SetRingWire(shards, linkCap int, wake func(shard int), mutexLinks bool, track func(dst topology.CellID, delta int64)) {
	if shards <= 0 || mutexLinks {
		panic(fmt.Sprintf("tnet: %d delivery shards, mutexLinks %v", shards, mutexLinks))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if wake == nil {
		wake = func(int) {}
	}
	rw := &ringWire{shards: shards, links: make([][]*RingLink, shards), shard: make([]shardBufs, shards), wake: wake, track: track}
	for s := range rw.shard {
		rw.shard[s].out = make([][]Packet, shards)
		rw.shard[s].in = make([]Packet, max(linkCap, 1))
	}
	for cons := range rw.links {
		rw.links[cons] = make([]*RingLink, shards)
		for prod := range rw.links[cons] {
			rw.links[cons][prod] = NewRingLink(linkCap)
		}
	}
	n.ring = rw
	n.stats = make([]wireShardStats, shards)
}

// Send routes a packet to its destination: Transmit, then Flush of
// the source's shard, so a cross-shard packet is on its link when Send
// returns. Ordering guarantee: calls from the same goroutine to the
// same destination are processed in call order (static routing,
// in-order links).
func (n *Network) Send(p Packet) bool {
	ok := n.Transmit(&p)
	if rw := n.ring; rw != nil {
		n.Flush(int(p.Head.Src) % rw.shards)
	}
	return ok
}

// Transmit routes a packet to its destination; with a link matrix the
// caller must own the source cell's shard. Without a link matrix, and
// for same-shard traffic with one, the destination's receive controller runs on the calling
// goroutine and Transmit reports whether it accepted the packet; a
// cross-shard packet is copied into the shard's outbox for its
// consumer and Transmit reports true — it runs no handler, charges no
// quiesce counter and rings no doorbell until Flush. With a fault plan
// installed the injector first decides the attempt's fate: the packet
// may be dropped, corrupted, duplicated or held back before it is
// routed, and the reliable layer reads false as "retransmit". Every
// call counts as one wire message of its op (attempts, not unique
// packets); an op outside msc.NumOps panics. The packet is read, never
// retained.
func (n *Network) Transmit(p *Packet) bool {
	src, dst := p.Head.Src, p.Head.Dst
	if !n.torus.Valid(dst) {
		panic(fmt.Sprintf("tnet: send to invalid cell %d", dst))
	}
	if of := n.partOf; of != nil && of[src] != of[dst] {
		panic(fmt.Sprintf("tnet: cross-partition send %d->%d (partition %d -> %d): partitions have disjoint T-net routing",
			src, dst, of[src], of[dst]))
	}
	op := int(p.Head.Op)
	if op >= msc.NumOps {
		panic(fmt.Sprintf("tnet: send of unknown op %d", op))
	}
	s := &n.stats[int(src)%len(n.stats)]
	s.perOp[op].Add(1)
	s.bytes.Add(p.Payload.Size())
	s.hops.Add(int64(n.torus.Distance(src, dst)))
	if inj := n.inj; inj != nil {
		return n.faultySend(inj, p)
	}
	return n.route(p)
}

// route puts one copy of a packet on its path: the producing shard's
// outbox for a cross-shard destination, else inline delivery.
func (n *Network) route(p *Packet) bool {
	if rw := n.ring; rw != nil && !p.Inline {
		if prod, cons := int(p.Head.Src)%rw.shards, int(p.Head.Dst)%rw.shards; prod != cons {
			sb := &rw.shard[prod]
			if len(sb.out[cons]) == 0 {
				sb.dirty = append(sb.dirty, cons)
			}
			sb.out[cons] = append(sb.out[cons], *p)
			return true
		}
	}
	return n.deliver(p)
}

// Flush publishes every packet staged by shard prod: per consumer, it
// charges track once per run of packets bound for one partition,
// appends the batch to the link with one lock and rings the
// consumer's doorbell once. Only prod's owner may call it. A no-op
// without a link matrix.
func (n *Network) Flush(prod int) {
	rw := n.ring
	if rw == nil {
		return
	}
	sb := &rw.shard[prod]
	for _, cons := range sb.dirty {
		ps := sb.out[cons]
		// Charge before publishing: once a packet is on the link the
		// consumer may deliver and uncharge it at any moment.
		n.charge(ps, 1)
		rw.links[cons][prod].publish(ps)
		clear(ps)
		sb.out[cons] = ps[:0]
		rw.wake(cons)
	}
	sb.dirty = sb.dirty[:0]
}

// charge applies sign·len(run) to track for each run of consecutive
// packets bound for one partition.
func (n *Network) charge(ps []Packet, sign int64) {
	track := n.ring.track
	if track == nil {
		return
	}
	of := n.partOf
	for i := 0; i < len(ps); {
		j := len(ps)
		if of != nil {
			part := of[ps[i].Head.Dst]
			for j = i + 1; j < len(ps) && of[ps[j].Head.Dst] == part; j++ {
			}
		}
		track(ps[i].Head.Dst, sign*int64(j-i))
		i = j
	}
}

// deliver hands a packet to its destination's receive controller and,
// when the sender transferred ownership, returns the payload to its
// pool.
func (n *Network) deliver(p *Packet) bool {
	h := n.handlers[p.Head.Dst]
	if h == nil {
		panic(fmt.Sprintf("tnet: cell %d has no receive controller", p.Head.Dst))
	}
	ok := h(*p)
	if p.FreeOnDeliver && p.Payload != nil {
		p.Payload.Release()
	}
	return ok
}

// DrainInbox delivers up to max pending packets destined for the
// given consuming shard, in total across all producing shards' links,
// and reports how many; max <= 0 drains everything pending. It takes
// at most linkCap packets per lock into the shard's receive buffer
// and delivers them in place; after each chunk it flushes what the
// handlers transmitted (atomic replies, store acks) and only then
// uncharges the delivered packets, so the quiesce count never drops
// to zero under a staged reply. Only the shard's owning worker may
// call it — it is the consumer side of the shard's links.
func (n *Network) DrainInbox(shard, max int) int {
	rw := n.ring
	if rw == nil {
		return 0
	}
	in := rw.shard[shard].in
	total := 0
	for _, l := range rw.links[shard] {
		for max <= 0 || total < max {
			lim := len(in)
			if max > 0 {
				lim = min(lim, max-total)
			}
			k := l.take(in[:lim])
			if k == 0 {
				break
			}
			for i := range in[:k] {
				n.deliver(&in[i])
			}
			n.Flush(shard)
			n.charge(in[:k], -1)
			clear(in[:k])
			total += k
			if k < lim {
				break
			}
		}
	}
	return total
}

// faultySend applies the injected wire fate to one transmission
// attempt. The fate is decided at the sender, so it doubles as the
// acknowledgement: drop, reorder and corrupt report false (the ack
// timeout) whether or not the receiver sits behind a link; a damaged
// copy still travels, to be rejected by the receiver's checksum. Held
// (reordered) packets of the same stream are released after any intact
// attempt of that stream, so a held packet always arrives later than a
// successor from its own stream — an observable reorder that the
// receive-side dedup then collapses.
func (n *Network) faultySend(inj *fault.Injector, p *Packet) bool {
	key := streamKey{p.Head.Src, p.Head.Dst, p.Head.Op}
	fate := inj.Decide(int(p.Head.Src), int(p.Head.Dst), int(p.Head.Op))
	switch fate.Kind {
	case fault.KindDrop:
		return false
	case fault.KindReorder:
		n.mu.Lock()
		n.limbo[key] = append(n.limbo[key], *p)
		n.mu.Unlock()
		// The sender sees a timeout and retransmits; the held copy
		// arrives later as a duplicate.
		return false
	case fault.KindCorrupt:
		bad := corruptPacket(*p, fate.CorruptBit)
		n.route(&bad)
		return false
	case fault.KindDup:
		ok := n.route(p)
		n.route(p)
		n.releaseHeld(key)
		return ok
	default: // KindNone, KindDelay (the functional net is untimed)
		ok := n.route(p)
		n.releaseHeld(key)
		return ok
	}
}

// corruptPacket damages the delivered copy of a packet: one payload
// bit flips, or — for a payloadless packet — the checksum itself is
// poisoned. The caller's packet (and payload) stay pristine for
// retransmission.
func corruptPacket(p Packet, bit uint64) Packet {
	if clone := p.Payload.CorruptClone(bit); clone != nil {
		p.Payload = clone
	} else {
		p.Head.Sum ^= 1 << (bit % 64)
	}
	return p
}

// releaseHeld routes every packet held on the stream, behind the
// intact attempt that triggered the release. The caller is the
// stream's sending goroutine, so a held packet can never race its own
// retransmission and a link keeps its single producer.
func (n *Network) releaseHeld(key streamKey) {
	n.mu.Lock()
	held := n.limbo[key]
	if held == nil {
		n.mu.Unlock()
		return
	}
	delete(n.limbo, key)
	n.mu.Unlock()
	for i := range held {
		n.route(&held[i])
	}
}

// DropHeld discards the copies of p's stream still held in limbo. The
// reliable layer calls it when it abandons p: a network that sat on a
// packet past the sender's whole retry budget has lost it. So limbo
// never outlives the transmission that filled it.
func (n *Network) DropHeld(p Packet) {
	n.mu.Lock()
	delete(n.limbo, streamKey{p.Head.Src, p.Head.Dst, p.Head.Op})
	n.mu.Unlock()
}

// Stats snapshots traffic counters, summed over the shards; Messages
// is PerOp's sum, so a snapshot never reads the two out of step.
func (n *Network) Stats() Stats {
	var s Stats
	for i := range n.stats {
		sh := &n.stats[i]
		s.Bytes += sh.bytes.Load()
		s.HopsTotal += sh.hops.Load()
		for op := range sh.perOp {
			k := sh.perOp[op].Load()
			s.PerOp[op] += k
			s.Messages += k
		}
	}
	return s
}
