package ring

import (
	"sync"
	"sync/atomic"
)

// Overflow composes an SPSC ring with a mutex-guarded spill buffer so
// Push never fails: when the ring is full the producer spills, just
// as the MSC+ writes to its DRAM buffer when a hardware queue fills.
// The concurrency contract is the SPSC one — one pusher, one popper —
// and FIFO order is preserved across the spill by a monotonic rule:
// once anything has spilled, the producer keeps spilling until the
// consumer has taken every spilled item, so ring entries are always
// older than spill entries. The consumer never refills the ring (that
// would make it a second producer); it stages spilled items into a
// consumer-local buffer served before the ring. This is the only copy
// of that algorithm; the MSC+ send queues (msc.NewRing) store their
// commands here.
type Overflow[T any] struct {
	hw *SPSC[T]

	mu           sync.Mutex
	spill        []T
	spillHead    int
	spillPending atomic.Int64
	spills       atomic.Int64

	// Consumer-local staging of spilled items; stagedPending mirrors
	// its length so Len works from any goroutine.
	staged        []T
	stagedHead    int
	stagedPending atomic.Int64

	// onRefill, when set, is told how many items each staging pass
	// moved; it runs on the consumer with no lock held.
	onRefill func(n int)
}

// NewOverflow builds an Overflow whose fast-path ring holds at least
// capacity items (rounded up to a power of two).
func NewOverflow[T any](capacity int) *Overflow[T] {
	return &Overflow[T]{hw: New[T](capacity)}
}

// SetRefillObserver installs the staging-pass observer (the MSC+
// counts OS refill interrupts through it). Install before traffic
// flows.
func (o *Overflow[T]) SetRefillObserver(fn func(n int)) { o.onRefill = fn }

// Push appends v; it never fails, and reports whether v went to the
// spill buffer instead of the ring. Single producer.
func (o *Overflow[T]) Push(v T) (spilled bool) { return o.PushFrom(&v) }

// PushFrom is Push reading the item through a pointer.
func (o *Overflow[T]) PushFrom(v *T) (spilled bool) {
	if o.spillPending.Load() == 0 && o.hw.PushFrom(v) {
		return false
	}
	o.mu.Lock()
	o.spill = append(o.spill, *v)
	o.spillPending.Add(1)
	o.spills.Add(1)
	o.mu.Unlock()
	return true
}

// Pop removes the oldest item. Single consumer.
func (o *Overflow[T]) Pop() (v T, ok bool) {
	ok = o.PopInto(&v)
	return v, ok
}

// PopInto is Pop writing the item through a pointer; *dst is left
// untouched when the queue is empty. Service order — staged spill,
// then ring, then a fresh staging pass — is exactly age order under
// the monotonic spill rule.
func (o *Overflow[T]) PopInto(dst *T) bool {
	if o.stagedHead < len(o.staged) {
		*dst = o.staged[o.stagedHead]
		var zero T
		o.staged[o.stagedHead] = zero
		o.stagedHead++
		o.stagedPending.Add(-1)
		if o.stagedHead == len(o.staged) {
			o.staged = o.staged[:0]
			o.stagedHead = 0
		}
		return true
	}
	if o.hw.PopInto(dst) {
		return true
	}
	if o.spillPending.Load() == 0 {
		return false
	}
	// The producer may have filled the ring and spilled between the
	// failed ring pop and the load above; staging now would serve the
	// spilled item a ring's worth too early. A nonzero spillPending
	// pins the producer in spill mode, so one more look at the ring is
	// conclusive: whatever it holds is older than the whole spill.
	if o.hw.PopInto(dst) {
		return true
	}
	o.mu.Lock()
	n := len(o.spill) - o.spillHead
	if max := o.hw.Cap(); n > max {
		n = max
	}
	o.staged = append(o.staged[:0], o.spill[o.spillHead:o.spillHead+n]...)
	o.stagedHead = 0
	o.spillHead += n
	if o.spillHead == len(o.spill) {
		// Zero the drained prefix so spilled pointers are not pinned,
		// then reuse the storage.
		var zero T
		for i := range o.spill {
			o.spill[i] = zero
		}
		o.spill = o.spill[:0]
		o.spillHead = 0
	}
	o.spillPending.Add(int64(-n))
	o.stagedPending.Add(int64(n))
	o.mu.Unlock()
	if o.onRefill != nil {
		o.onRefill(n)
	}
	return o.PopInto(dst)
}

// Len reports buffered items; exact for producer or consumer, a
// point-in-time approximation for anyone else.
func (o *Overflow[T]) Len() int {
	return o.hw.Len() + int(o.spillPending.Load()) + int(o.stagedPending.Load())
}

// Spills reports how many pushes overflowed to the spill buffer.
func (o *Overflow[T]) Spills() int64 { return o.spills.Load() }

// Cap reports the fast-path ring capacity.
func (o *Overflow[T]) Cap() int { return o.hw.Cap() }
