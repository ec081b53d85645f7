// Package event provides the discrete-event simulation kernel used by
// the message-level simulator (MLSim) and the timing models of the
// functional machine.
//
// Time is kept in integer nanoseconds so that the microsecond-scale
// parameters of the paper's Figure 6 (down to 0.04 us = 40 ns) are
// represented exactly. Events with equal timestamps fire in the order
// they were scheduled, which makes every simulation deterministic.
package event

import (
	"container/heap"
	"fmt"
)

// Time is a simulation timestamp in nanoseconds.
type Time int64

// Common time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a timestamp later than any reachable simulation time.
const Forever Time = 1<<63 - 1

// Microseconds converts a floating-point microsecond quantity (the
// unit of the paper's parameter files) to a Time, rounding to the
// nearest nanosecond.
func Microseconds(us float64) Time {
	if us < 0 {
		return -Time(-us*1000 + 0.5)
	}
	return Time(us*1000 + 0.5)
}

// Us reports t in microseconds as a float64, the unit used in all of
// the paper's tables.
func (t Time) Us() float64 { return float64(t) / 1000 }

// String formats the time in microseconds, e.g. "12.340us".
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Us()) }

// Handler is the callback attached to a scheduled event. It runs at
// the event's timestamp.
type Handler func(now Time)

// item is a scheduled event in the kernel's heap.
type item struct {
	at      Time
	seq     uint64 // tie-breaker: FIFO among equal timestamps
	handler Handler
	index   int // heap index; -1 once popped or cancelled
}

// Event is a cancellable handle to a scheduled event.
type Event struct{ it *item }

// Time reports when the event will fire (or was going to fire).
func (e Event) Time() Time { return e.it.at }

// queue implements heap.Interface ordered by (at, seq).
type queue []*item

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q queue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *queue) Push(x any) {
	it := x.(*item)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *queue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*q = old[:n-1]
	return it
}

// Kernel is a deterministic discrete-event scheduler. The zero value
// is ready to use. Kernel is not safe for concurrent use; MLSim runs
// single-threaded by design (the paper's MLSim is a sequential
// trace-driven simulator).
type Kernel struct {
	now    Time
	seq    uint64
	q      queue
	events int64 // total events executed, for statistics
	// observer, when set, runs after each executed event — the
	// observability layer's progress hook (timeline heartbeat,
	// event-rate metrics). It must not schedule or cancel events.
	observer func(now Time, executed int64, pending int)
}

// SetObserver installs a callback invoked after every executed event
// with the current time, the cumulative executed-event count, and the
// remaining queue length. Pass nil to remove it.
func (k *Kernel) SetObserver(fn func(now Time, executed int64, pending int)) {
	k.observer = fn
}

// Now reports the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have been executed so far.
func (k *Kernel) Executed() int64 { return k.events }

// Pending reports how many events are scheduled but not yet fired.
func (k *Kernel) Pending() int { return len(k.q) }

// At schedules h to run at absolute time at. Scheduling in the past
// (before Now) panics: it would silently corrupt causality.
func (k *Kernel) At(at Time, h Handler) Event {
	if at < k.now {
		panic(fmt.Sprintf("event: schedule at %v before now %v", at, k.now))
	}
	it := &item{at: at, seq: k.seq, handler: h}
	k.seq++
	heap.Push(&k.q, it)
	return Event{it}
}

// After schedules h to run d nanoseconds from now.
func (k *Kernel) After(d Time, h Handler) Event {
	if d < 0 {
		panic(fmt.Sprintf("event: negative delay %v", d))
	}
	return k.At(k.now+d, h)
}

// Cancel removes a scheduled event. Cancelling an event that already
// fired or was already cancelled is a no-op and reports false.
func (k *Kernel) Cancel(e Event) bool {
	if e.it == nil || e.it.index < 0 {
		return false
	}
	heap.Remove(&k.q, e.it.index)
	e.it.index = -1
	return true
}

// Step executes the single earliest event. It reports false when no
// events are pending.
func (k *Kernel) Step() bool {
	if len(k.q) == 0 {
		return false
	}
	it := heap.Pop(&k.q).(*item)
	k.now = it.at
	k.events++
	it.handler(k.now)
	if k.observer != nil {
		k.observer(k.now, k.events, len(k.q))
	}
	return true
}

// Run executes events until the queue drains and returns the final
// simulation time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil executes events with timestamps <= deadline. Events beyond
// the deadline remain queued; Now is advanced to the deadline if the
// simulation had not already passed it.
func (k *Kernel) RunUntil(deadline Time) {
	for len(k.q) > 0 && k.q[0].at <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}
