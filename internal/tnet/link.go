package tnet

import "sync"

// Link is one direction of a T-net conduit between a producing and a
// consuming delivery shard. Enqueue never blocks and never fails (a
// link grows past its fast-path depth, as the hardware spills to
// DRAM); the owning consumer Drains in FIFO order. The SPSC contract
// applies per link: one producing shard publishes, one consuming
// shard takes. The link matrix moves packets in batches through the
// unexported publish and take; Enqueue and Drain are their
// one-packet forms. Two implementations exist — the batched RingLink
// the machine runs on, and the per-packet MutexLink kept as the
// obviously-correct reference for differential testing
// (TestLinkImplsEquivalent).
type Link interface {
	// Enqueue appends a packet (producer side).
	Enqueue(Packet)
	// Drain delivers up to max pending packets to deliver in FIFO
	// order and reports how many (consumer side). max <= 0 drains
	// everything pending.
	Drain(max int, deliver func(Packet)) int
	// Pending reports buffered packets (approximate off-shard).
	Pending() int
	// Stats snapshots the link's counters.
	Stats() LinkStats

	// publish appends a batch in order (producer side).
	publish(ps []Packet)
	// take moves the oldest min(len(dst), pending) packets into dst
	// and reports how many (consumer side).
	take(dst []Packet) int
}

// LinkStats counts one link's traffic.
type LinkStats struct {
	Enqueued int64
	Drained  int64
	Spills   int64 // enqueues that found the fast path full
}

// drainChunk is how many packets Drain takes per lock.
const drainChunk = 16

// RingLink is the batched Link: a circular buffer under one mutex. A
// batch is copied in with one lock and copied out in chunks of up to
// the consumer's buffer with one lock each, so the lock and the
// copies are paid per batch, not per packet. The buffer starts at the
// fast-path depth and doubles when a backlog outgrows it; it is never
// handed to anyone, so producer, link and consumer each own exactly
// one backing array.
type RingLink struct {
	mu    sync.Mutex
	buf   []Packet // circular; len is 0 or a power of two
	head  int      // index of the oldest pending packet
	n     int      // pending packets
	depth int      // fast-path depth: the first allocation's size
	stats LinkStats
	// chunk is Drain's consumer-side buffer, allocated on first use.
	chunk []Packet
}

// NewRingLink builds a RingLink whose fast path holds at least
// capacity packets. The buffer is allocated on the first publish, so
// a link no traffic crosses costs no memory.
func NewRingLink(capacity int) *RingLink {
	d := 2
	for d < capacity {
		d <<= 1
	}
	return &RingLink{depth: d}
}

func (l *RingLink) Enqueue(p Packet) { l.publish([]Packet{p}) }

func (l *RingLink) Drain(max int, deliver func(Packet)) int {
	if l.chunk == nil {
		l.chunk = make([]Packet, drainChunk)
	}
	n := 0
	for max <= 0 || n < max {
		lim := len(l.chunk)
		if max > 0 {
			lim = min(lim, max-n)
		}
		k := l.take(l.chunk[:lim])
		for i := range l.chunk[:k] {
			deliver(l.chunk[i])
		}
		clear(l.chunk[:k])
		n += k
		if k < lim {
			break
		}
	}
	return n
}

func (l *RingLink) publish(ps []Packet) {
	l.mu.Lock()
	need := l.n + len(ps)
	if need > len(l.buf) {
		l.grow(need)
	}
	if over := need - l.depth; over > 0 {
		l.stats.Spills += int64(min(over, len(ps)))
	}
	tail := (l.head + l.n) & (len(l.buf) - 1)
	k := copy(l.buf[tail:], ps)
	copy(l.buf, ps[k:])
	l.n = need
	l.stats.Enqueued += int64(len(ps))
	l.mu.Unlock()
}

// grow reallocates the buffer to the smallest power of two holding
// need packets (at least depth), unwrapping the pending ones to the
// front. Caller holds mu.
func (l *RingLink) grow(need int) {
	c := max(len(l.buf), l.depth)
	for c < need {
		c <<= 1
	}
	buf := make([]Packet, c)
	l.copyOut(buf[:l.n])
	l.buf, l.head = buf, 0
}

func (l *RingLink) take(dst []Packet) int {
	l.mu.Lock()
	k := min(len(dst), l.n)
	l.copyOut(dst[:k])
	// Zero the vacated slots so pooled payloads of delivered packets
	// are not pinned by the link.
	end := l.head + k
	if end > len(l.buf) {
		clear(l.buf[l.head:])
		clear(l.buf[:end-len(l.buf)])
	} else {
		clear(l.buf[l.head:end])
	}
	if k > 0 {
		l.head = end & (len(l.buf) - 1)
	}
	l.n -= k
	l.stats.Drained += int64(k)
	l.mu.Unlock()
	return k
}

// copyOut copies the len(dst) oldest pending packets into dst without
// consuming them. Caller holds mu.
func (l *RingLink) copyOut(dst []Packet) {
	if len(dst) == 0 {
		return
	}
	k := copy(dst, l.buf[l.head:])
	copy(dst[k:], l.buf)
}

func (l *RingLink) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

func (l *RingLink) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// MutexLink is the reference Link: one mutex around a slice FIFO,
// taken once per packet on both sides. Semantically identical to
// RingLink, structurally too simple to be wrong — the differential
// partner that keeps the batched build honest.
type MutexLink struct {
	mu    sync.Mutex
	buf   []Packet
	head  int
	stats LinkStats
}

// NewMutexLink builds a MutexLink; capacity is advisory only.
func NewMutexLink(capacity int) *MutexLink {
	return &MutexLink{buf: make([]Packet, 0, capacity)}
}

func (l *MutexLink) Enqueue(p Packet) {
	l.mu.Lock()
	l.buf = append(l.buf, p)
	l.stats.Enqueued++
	l.mu.Unlock()
}

func (l *MutexLink) Drain(max int, deliver func(Packet)) int {
	n := 0
	var p Packet
	for (max <= 0 || n < max) && l.pop(&p) {
		deliver(p)
		n++
	}
	return n
}

func (l *MutexLink) publish(ps []Packet) {
	for _, p := range ps {
		l.Enqueue(p)
	}
}

func (l *MutexLink) take(dst []Packet) int {
	n := 0
	for n < len(dst) && l.pop(&dst[n]) {
		n++
	}
	return n
}

// pop moves the oldest packet into *dst and reports whether there was
// one.
func (l *MutexLink) pop(dst *Packet) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head >= len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
		return false
	}
	*dst = l.buf[l.head]
	l.buf[l.head] = Packet{}
	l.head++
	l.stats.Drained++
	return true
}

func (l *MutexLink) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf) - l.head
}

func (l *MutexLink) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
