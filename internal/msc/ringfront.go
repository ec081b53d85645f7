package msc

import (
	"sync"
	"sync/atomic"

	"ap1000plus/internal/ring"
)

// ringQueue is the lock-free build of one MSC+ send queue. The
// commands live in a ring.Overflow (producer: the cell's CPU
// goroutine; consumer: the delivery worker that owns the cell), whose
// SPSC ring is the hardware FIFO and whose spill buffer is the
// hardware's "write into the buffer in DRAM" path (S4.1); FIFO order
// across the spill is Overflow's business. What is kept here is the
// MSC+'s accounting: pushes and pops, the hardware queue's high-water
// mark, spill and refill observers, and one OS interrupt per spill
// service episode.
type ringQueue struct {
	name string
	cmds *ring.Overflow[Command]

	// Producer-side high-water mark of the hardware queue; only the
	// producer writes it, readers get a snapshot.
	maxDepth atomic.Int64

	// Consumer-local episode state: staged counts refilled commands
	// not yet popped, serving stays set until a pop is served by the
	// ring (or finds the queue empty), so a contiguous spill-service
	// episode counts one interrupt however many refill batches it
	// takes.
	staged  int
	serving bool

	pushes     atomic.Int64
	pops       atomic.Int64
	refills    atomic.Int64
	interrupts atomic.Int64

	// Spill/refill observers (observability layer): onSpill runs in
	// producer context, onRefill in consumer context. Neither may call
	// back into the queue.
	onSpill  func(queue string, n int)
	onRefill func(queue string, n int)
}

func newRingQueue(name string, capacityWords int) *ringQueue {
	q := &ringQueue{name: name, cmds: ring.NewOverflow[Command](capacityWords / CommandWords)}
	q.cmds.SetRefillObserver(q.refilled)
	return q
}

// push appends a command; single producer. It never rejects: overflow
// goes to the DRAM spill buffer.
func (q *ringQueue) push(c *Command) {
	q.pushes.Add(1)
	if q.cmds.PushFrom(c) {
		if q.onSpill != nil {
			q.onSpill(q.name, 1)
		}
		return
	}
	// Refilled commands count as back in the hardware queue, which
	// never holds more than its capacity.
	if d := int64(min(q.cmds.Len(), q.cmds.Cap())); d > q.maxDepth.Load() {
		q.maxDepth.Store(d)
	}
}

// pop removes the oldest command into *dst (straight into the
// caller's batch: a Command is 20 words, 160 B, and every hand-off by
// value copies it); single consumer.
func (q *ringQueue) pop(dst *Command) (ok bool) {
	ok = q.cmds.PopInto(dst)
	if q.staged > 0 {
		q.staged--
	} else {
		q.serving = false
	}
	if ok {
		q.pops.Add(1)
	}
	return ok
}

// refilled observes the OS interrupt that moves spilled commands back
// toward the queue: up to one ring's worth per refill, called from
// inside q.cmds.Pop on the consumer.
func (q *ringQueue) refilled(n int) {
	q.staged += n
	q.refills.Add(int64(n))
	if !q.serving {
		q.serving = true
		q.interrupts.Add(1)
	}
	if q.onRefill != nil {
		q.onRefill(q.name, n)
	}
}

func (q *ringQueue) snapshot() QueueStats {
	return QueueStats{
		Pushes:     q.pushes.Load(),
		Pops:       q.pops.Load(),
		Spills:     q.cmds.Spills(),
		Refills:    q.refills.Load(),
		Interrupts: q.interrupts.Load(),
		MaxDepth:   int(q.maxDepth.Load()),
	}
}

// ringFront is the lock-free MSC+ front end. The three send queues
// are SPSC rings — their single producer is the cell's CPU program
// goroutine (the SPMD discipline: one program goroutine per cell
// issues all user, system and remote-access commands). The two reply
// queues stay mutex-guarded: replies are pushed from delivery
// context, which under inline transport can be any worker.
type ringFront struct {
	user, sys, remote *ringQueue

	replyMu      sync.Mutex
	getReply     *Queue
	rloadReply   *Queue
	replyPending atomic.Int64

	// notify is the doorbell to the delivery worker that owns this
	// cell; rung after every push.
	notify func()
	closed atomic.Bool
}

// NewRing builds an MSC+ whose queue storage is the lock-free ring
// front: send queues on SPSC rings with DRAM spill, reply queues
// mutex-guarded. notify is the doorbell rung after every push — the
// machine points it at the delivery worker that owns the cell.
func NewRing(words int, notify func()) *MSC {
	if notify == nil {
		notify = func() {}
	}
	m := NewWithQueueWords(words)
	m.ring = &ringFront{
		user:       newRingQueue("user-send", words),
		sys:        newRingQueue("sys-send", words),
		remote:     newRingQueue("remote-access", words),
		getReply:   m.getReply,
		rloadReply: m.rloadReply,
		notify:     notify,
	}
	return m
}

func (f *ringFront) checkOpen() {
	if f.closed.Load() {
		panic("msc: push after Close")
	}
}

// pushReply serializes delivery-context pushes onto a reply queue.
func (f *ringFront) pushReply(q *Queue, c Command) {
	f.checkOpen()
	f.replyMu.Lock()
	q.Push(c)
	f.replyMu.Unlock()
	f.replyPending.Add(1)
	f.notify()
}

// tryNextBatch fills buf with up to len(buf) pending commands without
// blocking, in the hardware's priority order (replies first),
// evaluated once per activation.
func (f *ringFront) tryNextBatch(buf []Command) int {
	n := 0
	if f.replyPending.Load() > 0 {
		f.replyMu.Lock()
		for _, q := range []*Queue{f.rloadReply, f.getReply} {
			for n < len(buf) {
				c, ok := q.Pop()
				if !ok {
					break
				}
				buf[n] = c
				n++
			}
		}
		f.replyMu.Unlock()
		if n > 0 {
			f.replyPending.Add(int64(-n))
		}
	}
	for _, q := range []*ringQueue{f.remote, f.sys, f.user} {
		for n < len(buf) && q.pop(&buf[n]) {
			n++
		}
	}
	return n
}

func (f *ringFront) pending() int {
	f.replyMu.Lock()
	replies := f.getReply.Len() + f.rloadReply.Len()
	f.replyMu.Unlock()
	return replies + f.user.cmds.Len() + f.sys.cmds.Len() + f.remote.cmds.Len()
}
