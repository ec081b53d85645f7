package tnet

import "sync"

// LinkStats counts one link's traffic.
type LinkStats struct {
	Enqueued int64
	Drained  int64
	Spills   int64 // enqueues that found the fast path full
}

// drainChunk is how many packets Drain takes per lock.
const drainChunk = 16

// RingLink is one direction of a T-net conduit between one producing
// and one consuming delivery shard (SPSC), in FIFO order: a circular
// buffer under one mutex. The link matrix moves packets in batches
// through publish and take, one lock and one copy per batch; Enqueue
// and Drain are their one-packet forms, for probes and tests. The
// buffer starts at the fast-path depth and doubles when a backlog
// outgrows it (publishing never blocks, as the hardware spills to
// DRAM); it is never handed to anyone, so producer, link and consumer
// each own exactly one backing array.
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

// Link and NewMutexLink are kept because bench/probes.go names them;
// the per-packet reference link is a test oracle now (link_test.go).
type Link = *RingLink

// NewMutexLink returns NewRingLink(capacity); see Link.
func NewMutexLink(capacity int) *RingLink { return NewRingLink(capacity) }

// Enqueue appends one packet (producer side).
func (l *RingLink) Enqueue(p Packet) { l.publish([]Packet{p}) }

// Drain delivers up to max (all if max <= 0) pending packets to
// deliver in FIFO order and reports how many (consumer side).
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

// publish appends a batch in order (producer side).
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

// take moves up to len(dst) oldest packets into dst (consumer side).
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

// Pending reports buffered packets (approximate off-shard).
func (l *RingLink) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Stats snapshots the link's counters.
func (l *RingLink) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
