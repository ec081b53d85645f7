package tnet

import (
	"sync"
	"sync/atomic"

	"ap1000plus/internal/ring"
)

// Link is one direction of a T-net conduit between a producing and a
// consuming delivery shard. Enqueue never blocks and never fails (a
// full fast path spills, as the hardware spills to DRAM); the owning
// consumer Drains in FIFO order. The SPSC contract applies per link:
// one producing shard calls Enqueue, one consuming shard calls Drain.
// Two implementations exist — the lock-free RingLink the machine
// runs on, and the mutex-guarded MutexLink kept as the
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
}

// LinkStats counts one link's traffic.
type LinkStats struct {
	Enqueued int64
	Drained  int64
	Spills   int64 // enqueues that overflowed the fast path
}

// RingLink is the lock-free Link: an SPSC ring with mutex-guarded
// spill overflow (ring.Overflow), so the producer never blocks the
// consumer and vice versa.
type RingLink struct {
	q        *ring.Overflow[Packet]
	enqueued atomic.Int64
	drained  atomic.Int64
}

// NewRingLink builds a RingLink whose fast path holds at least
// capacity packets.
func NewRingLink(capacity int) *RingLink {
	return &RingLink{q: ring.NewOverflow[Packet](capacity)}
}

func (l *RingLink) Enqueue(p Packet) {
	l.q.Push(p)
	l.enqueued.Add(1)
}

func (l *RingLink) Drain(max int, deliver func(Packet)) int {
	n := 0
	for max <= 0 || n < max {
		p, ok := l.q.Pop()
		if !ok {
			break
		}
		deliver(p)
		n++
	}
	if n > 0 {
		l.drained.Add(int64(n))
	}
	return n
}

func (l *RingLink) Pending() int { return l.q.Len() }

func (l *RingLink) Stats() LinkStats {
	return LinkStats{
		Enqueued: l.enqueued.Load(),
		Drained:  l.drained.Load(),
		Spills:   l.q.Spills(),
	}
}

// MutexLink is the reference Link: one mutex around a slice FIFO.
// Semantically identical to RingLink, structurally too simple to be
// wrong — the differential partner that keeps the lock-free build
// honest.
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
	for max <= 0 || n < max {
		l.mu.Lock()
		if l.head >= len(l.buf) {
			l.buf = l.buf[:0]
			l.head = 0
			l.mu.Unlock()
			break
		}
		p := l.buf[l.head]
		l.buf[l.head] = Packet{}
		l.head++
		l.stats.Drained++
		l.mu.Unlock()
		deliver(p)
		n++
	}
	return n
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
