// Package ring provides the bounded single-producer single-consumer
// lock-free ring buffer under the MSC+ command queues. It models the
// hardware structure the paper's PUT/GET interface rests on: a
// fixed-size FIFO between exactly two agents (the CPU and its MSC+),
// where the producer never blocks the consumer and vice versa. Capacity is a power of two so slot
// indexing is a mask, and the hot fields live on separate cache lines
// so a producer spinning on Push does not false-share with a consumer
// spinning on Pop.
//
// Concurrency contract: at most ONE goroutine calls Push and at most
// ONE goroutine calls Pop at any time (they may be the same
// goroutine). The head/tail stores are the only synchronization: a
// consumer that observes tail=t via Pop also observes every buffer
// write the producer made before storing t (Go's sync/atomic
// operations are sequentially consistent, which subsumes the
// release/acquire pairing needed here). Violating the SPSC contract
// corrupts the FIFO; multi-producer feeds must serialize externally.
// Every MSC+ queue in internal/msc is single-producer.
package ring

import "sync/atomic"

// cacheLine separates producer-owned and consumer-owned fields so the
// two sides never ping-pong a line between cores.
const cacheLine = 64

// SPSC is a bounded lock-free FIFO for one producer and one consumer.
// The zero value is not usable; construct with New.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_ [cacheLine]byte
	// head is the next slot to pop. Written only by the consumer.
	// cachedTail is the consumer's last observed tail, avoiding an
	// atomic load of the producer's line on every Pop.
	head       atomic.Uint64
	cachedTail uint64

	_ [cacheLine]byte
	// tail is the next slot to fill. Written only by the producer.
	// cachedHead mirrors cachedTail for the producer side.
	tail       atomic.Uint64
	cachedHead uint64

	_ [cacheLine]byte
}

// New creates an SPSC ring holding at least capacity items. Capacity
// is rounded up to the next power of two, minimum 2.
func New[T any](capacity int) *SPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Push appends v and reports success; false means the ring is full
// (the caller decides whether to spin, spill, or drop — the AP1000+
// hardware would raise the send-queue-full interrupt here).
func (r *SPSC[T]) Push(v T) bool { return r.PushFrom(&v) }

// PushFrom is Push reading the item through a pointer, so a large
// item is copied once, straight into its slot.
func (r *SPSC[T]) PushFrom(v *T) bool {
	t := r.tail.Load()
	if t-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = *v
	r.tail.Store(t + 1)
	return true
}

// Pop removes and returns the oldest item; ok is false when the ring
// is empty.
func (r *SPSC[T]) Pop() (v T, ok bool) {
	ok = r.PopInto(&v)
	return v, ok
}

// PopInto is Pop writing the item through a pointer: it moves the
// oldest item into *dst and reports whether there was one, leaving
// *dst untouched when the ring is empty. The vacated slot is zeroed so
// pooled payloads referenced from a popped packet are not pinned by
// the ring.
func (r *SPSC[T]) PopInto(dst *T) bool {
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h == r.cachedTail {
			return false
		}
	}
	i := h & r.mask
	*dst = r.buf[i]
	var zero T
	r.buf[i] = zero
	r.head.Store(h + 1)
	return true
}

// Len reports the number of buffered items. It is exact when called
// by either the producer or the consumer, and a point-in-time
// approximation for anyone else.
func (r *SPSC[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Cap reports the ring's capacity in items.
func (r *SPSC[T]) Cap() int { return len(r.buf) }
