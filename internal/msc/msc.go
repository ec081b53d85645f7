// Package msc models the AP1000+ message controller (MSC+): the five
// command queues in its RAM (three send queues — user PUT/GET, system
// PUT/GET, remote access — and two reply queues — GET reply and
// remote-load reply), the 64-word queue limit with automatic spill to
// a DRAM buffer and operating-system refill, and the command/packet
// vocabulary the send and receive controllers exchange (S4.1).
package msc

import (
	"fmt"
	"sync/atomic"

	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/topology"
)

// Op is a command/packet operation code.
type Op uint8

const (
	// OpPut transfers data into remote memory.
	OpPut Op = iota
	// OpGet requests remote data; the remote MSC+ answers with
	// OpGetReply without processor involvement.
	OpGet
	// OpGetReply carries GET payload back to the requester.
	OpGetReply
	// OpRemoteStore is a hardware-issued store into distributed
	// shared memory (S4.2); it is acknowledged automatically.
	OpRemoteStore
	// OpRemoteStoreAck acknowledges an OpRemoteStore.
	OpRemoteStoreAck
	// OpRemoteLoad is a hardware-issued blocking load from
	// distributed shared memory.
	OpRemoteLoad
	// OpRemoteLoadReply carries remote-load data back.
	OpRemoteLoadReply
	// OpSend appends a message to the destination's ring buffer
	// (the SEND/RECEIVE model, S4.3).
	OpSend
	// OpDSMInval invalidates a shared-space page cached by the
	// destination cell: the page's owner sends it when a write-through
	// store lands on a page with registered sharers, before the store
	// is acknowledged (the DSM directory protocol). It carries no
	// payload; RAddr is the owner-local page address and Tag the
	// writing cell.
	OpDSMInval
	// OpAtomic asks the destination's MSC+ to execute a read-modify-
	// write (the remote atomic suite generalizing the MC's S4.1
	// fetch-and-increment) on one 8-byte word of cell memory. AOp names
	// the operation, RAddr the word, AVal the operand and ACmp the
	// compare value (CompareAndSwap only). Tag correlates the reply for
	// fetching operations; Tag 0 marks a non-fetching update whose
	// reply serves only as the fence acknowledgement.
	OpAtomic
	// OpAtomicReply carries the fetched old value back (AVal), or the
	// bare acknowledgement for a non-fetching atomic (Tag 0). ACmp is
	// nonzero when the owner faulted instead of executing.
	OpAtomicReply
	// OpDSMEvict notifies a page's owner that the sender silently
	// dropped its cached copy (LRU capacity eviction), so the owner can
	// deregister the sharer instead of sending spurious invalidations.
	// RAddr is the owner-local page address, Tag the fill epoch of the
	// evicted copy (stale notices lose to a newer registration).
	OpDSMEvict

	numOps
)

// NumOps is the number of operation codes — the size any per-op
// statistics array must have.
const NumOps = int(numOps)

var opNames = [numOps]string{
	"put", "get", "get-reply", "rstore", "rstore-ack", "rload", "rload-reply", "send",
	"dsm-inval", "atomic", "atomic-reply", "dsm-evict",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpNames returns the operation names indexed by Op — the canonical
// message-class vocabulary of the fault layer (the networks key their
// per-class fault streams by these names).
func OpNames() []string {
	return append([]string(nil), opNames[:]...)
}

// CommandWords is the parameter count of a PUT/GET command: "PUT/GET
// operations require 8-word parameters, the overhead of PUT/GET is
// the time for 8 store instructions" (S4.1).
const CommandWords = 8

// QueueWords is the capacity of each MSC+ queue in words: "the
// maximum queue size is 64 words" (S4.1).
const QueueWords = 64

// Command is one entry of an MSC+ queue. The same structure doubles
// as the network packet header.
type Command struct {
	Op  Op
	Src topology.CellID
	Dst topology.CellID
	// RAddr is the remote address (on Dst for PUT/SEND, on the data
	// holder for GET). Address 0 on a GET means "no data copy" — the
	// acknowledge round trip of S4.1.
	RAddr mem.Addr
	// LAddr is the local address (source of PUT, destination of GET).
	LAddr mem.Addr
	// RStride and LStride describe the transfer patterns at the
	// remote and local side.
	RStride mem.Stride
	LStride mem.Stride
	// SendFlag is incremented on the data-sending cell when its send
	// DMA completes; RecvFlag on the data-receiving cell when its
	// receive DMA completes.
	SendFlag mc.FlagID
	RecvFlag mc.FlagID
	// Ack requests an acknowledgement for a PUT.
	Ack bool
	// Port selects the destination ring buffer for OpSend.
	Port int32
	// Tag carries an opaque correlation token (remote load waiters;
	// the writing cell on a DSM invalidation).
	Tag int64
	// CacheFill marks a remote load issued to fill a DSM page cache:
	// the owning cell's MSC+ registers the requester in its sharer
	// directory before capturing the reply, so a later write-through
	// store invalidates the requester's copy. Port doubles as the
	// sharer's fill epoch on such loads (OpSend and cache fills never
	// mix on one command).
	CacheFill bool
	// AOp, AVal and ACmp are the atomic header (OpAtomic /
	// OpAtomicReply): the ALU operation, its operand (or the fetched
	// old value on the reply) and the CompareAndSwap compare value
	// (re-used as the fault marker on replies). Plain integers so the
	// command stays GC-transparent.
	AOp  mc.AtomicOp
	AVal int64
	ACmp int64
	// Seq and Sum are the reliable-delivery header (fault layer): Seq
	// is the packet's sequence number on its (Src, Dst) link, Sum the
	// end-to-end checksum over header and payload. Both stay zero when
	// the machine runs without a fault plan; plain integers so the
	// command remains GC-transparent and the queues allocation-free.
	Seq uint64
	Sum uint64
	// San identifies the issuing thread's released sanitizer clock
	// (an apsan handle) when the machine runs with Sanitize; 0
	// otherwise. The controller that pops the command acquires it,
	// modeling the store-buffer ordering between the CPU's
	// command-word stores and the MSC+ reading them. A plain integer
	// rather than a pointer so Command stays GC-transparent: the
	// queues copy and store these structs on the simulator's hottest
	// path.
	San int64
}

func (c Command) String() string {
	return fmt.Sprintf("%s %d->%d raddr=%#x laddr=%#x %db", c.Op, c.Src, c.Dst, c.RAddr, c.LAddr, c.LStride.Total())
}

// QueueStats counts queue activity.
type QueueStats struct {
	Pushes     int64
	Pops       int64
	Spills     int64 // commands that overflowed to the DRAM buffer
	Refills    int64 // commands moved back from DRAM into the queue
	Interrupts int64 // OS refill interrupts, one per spill-service episode
	MaxDepth   int   // high-water mark of the hardware queue
}

// CheckQueueWords reports whether words can size the MSC+ queues: a
// power-of-two count of at least two commands. Each queue's hardware
// FIFO is a ring whose slot count is a power of two, at least two
// (ring.New); any other size would silently run a deeper FIFO than
// the one configured.
func CheckQueueWords(words int) error {
	n := words / CommandWords
	switch {
	case words < CommandWords:
		return fmt.Errorf("queue of %d words is below one %d-word command", words, CommandWords)
	case words%CommandWords != 0 || n < 2 || n&(n-1) != 0:
		return fmt.Errorf("queue of %d words is not a power-of-two count (at least 2) of %d-word commands", words, CommandWords)
	}
	return nil
}

// MSC is one cell's message controller front end: the five queues,
// each an SPSC ring with DRAM spill. The CPU pushes commands, the
// receive controller pushes replies; the consumer — the delivery
// worker that owns the cell — pops them in the hardware's priority
// order with TryNext/TryNextBatch.
type MSC struct {
	// Send side: "three sending queues for PUT and GET requests
	// issued by the user, PUT and GET requests from the system, and
	// remote access" (S4.1). Their single producer is the cell's CPU
	// program goroutine (the SPMD discipline: one program goroutine
	// per cell issues all user, system and remote-access commands).
	userSend, sysSend, remoteAcc *ringQueue
	// Reply side: "two reply queues, one for GET replies, and one for
	// remote load replies. Remote load replies precede GET replies."
	// Their single producer is the cell's receive controller, which
	// runs on the same delivery worker that pops them.
	getReply, rloadReply *ringQueue

	// notify is the doorbell to the delivery worker that owns this
	// cell; rung after every push.
	notify func()
	closed atomic.Bool
}

// New builds an MSC+ with the hardware's 64-word queues and no
// doorbell.
func New() *MSC { return NewRing(QueueWords, nil) }

// NewRing builds an MSC+ whose five queues hold words 32-bit words
// each; it panics unless CheckQueueWords accepts words. notify is the
// doorbell rung after every push — the machine points it at the
// delivery worker that owns the cell; nil rings nothing.
func NewRing(words int, notify func()) *MSC {
	if err := CheckQueueWords(words); err != nil {
		panic("msc: " + err.Error())
	}
	if notify == nil {
		notify = func() {}
	}
	return &MSC{
		userSend:   newRingQueue("user-send", words),
		sysSend:    newRingQueue("sys-send", words),
		remoteAcc:  newRingQueue("remote-access", words),
		getReply:   newRingQueue("get-reply", words),
		rloadReply: newRingQueue("rload-reply", words),
		notify:     notify,
	}
}

func (m *MSC) checkOpen() {
	if m.closed.Load() {
		panic("msc: push after Close")
	}
}

// push enqueues on one queue; the caller is that queue's single
// producer.
func (m *MSC) push(q *ringQueue, c *Command) {
	m.checkOpen()
	q.push(c)
	m.notify()
}

// PushUser enqueues a user-level PUT/GET command. This is the paper's
// user interface: the program writes parameters "one-by-one to the
// special address" with plain stores — no system call. The caller must
// be the cell's single program goroutine (the SPMD discipline); the
// queue is an SPSC ring.
func (m *MSC) PushUser(c Command) { m.push(m.userSend, &c) }

// PushSystem enqueues a system-issued PUT/GET. A separate queue means
// "the MSC+ does not need to save and restore the entries for the
// user" when the OS communicates.
func (m *MSC) PushSystem(c Command) { m.push(m.sysSend, &c) }

// PushRemoteAccess enqueues a hardware remote load/store. "Remote
// access uses another queue because the processor waits for a remote
// load, so remote access must be privileged."
func (m *MSC) PushRemoteAccess(c Command) { m.push(m.remoteAcc, &c) }

// PushGetReply enqueues a reply to a GET request received from the
// network. The caller must be the cell's receive controller — the
// queue's single producer, which on the machine is the delivery
// worker that owns the cell.
func (m *MSC) PushGetReply(c Command) { m.push(m.getReply, &c) }

// PushRemoteLoadReply enqueues a reply to a remote load; the caller is
// the single producer, as for PushGetReply.
func (m *MSC) PushRemoteLoadReply(c Command) { m.push(m.rloadReply, &c) }

// PushUserBatch enqueues a run of user commands with one doorbell —
// the descriptor-ring NIC pattern: the CPU builds the whole command
// list in memory, then rings the doorbell once. One ring suffices
// because each MSC has a single consumer, which re-scans every queue
// before it parks.
func (m *MSC) PushUserBatch(cmds []Command) {
	if len(cmds) == 0 {
		return
	}
	m.checkOpen()
	for i := range cmds {
		m.userSend.push(&cmds[i])
	}
	m.notify()
}

// TryNextBatch fills buf with up to len(buf) pending commands without
// blocking. Priority, evaluated once per call: remote-load replies,
// then GET replies, then remote access, then system sends, then user
// sends — a reply that arrives while the consumer works through a
// batch waits at most one batch, the hardware's own queue-service
// granularity trade. It is the delivery worker's drain primitive: the
// worker owns the consumer side of the cell's SPSC rings, so only one
// goroutine may call it (or TryNext) at a time.
func (m *MSC) TryNextBatch(buf []Command) int {
	n := 0
	for _, q := range []*ringQueue{m.rloadReply, m.getReply, m.remoteAcc, m.sysSend, m.userSend} {
		for n < len(buf) && q.pop(&buf[n]) {
			n++
		}
	}
	return n
}

// TryNext pops the highest-priority pending command without blocking.
func (m *MSC) TryNext() (Command, bool) {
	var buf [1]Command
	if m.TryNextBatch(buf[:]) == 1 {
		return buf[0], true
	}
	return Command{}, false
}

// Pending reports the total commands across all queues.
func (m *MSC) Pending() int {
	return m.rloadReply.cmds.Len() + m.getReply.cmds.Len() + m.remoteAcc.cmds.Len() + m.sysSend.cmds.Len() + m.userSend.cmds.Len()
}

// Close marks the MSC as shutting down and rings the doorbell:
// commands already queued still pop, pushing after Close panics — it
// would lose commands.
func (m *MSC) Close() {
	m.closed.Store(true)
	m.notify()
}

// Reopen reverses Close, making the MSC accept pushes again — the
// machine reuses cells across gang-scheduled jobs instead of
// rebuilding them. Only legal once the queues have fully drained and
// every consumer that observed the Close has exited.
func (m *MSC) Reopen() { m.closed.Store(false) }

// SetObserver installs spill/refill observers on all five queues
// (observability layer). Install before traffic flows. Both receive
// the command count of the triggering push or refill; onSpill runs in
// producer context and onRefill in consumer context. Neither may call
// back into the MSC.
func (m *MSC) SetObserver(onSpill func(queue string, n int), onRefill func(queue string, n int)) {
	for _, q := range []*ringQueue{m.userSend, m.sysSend, m.remoteAcc, m.getReply, m.rloadReply} {
		q.onSpill = onSpill
		q.onRefill = onRefill
	}
}

// MSCStats aggregates the five queues' statistics.
type MSCStats struct {
	UserSend, SysSend, RemoteAccess, GetReply, RemoteLoadReply QueueStats
}

// Stats snapshots all queue counters.
func (m *MSC) Stats() MSCStats {
	return MSCStats{
		UserSend:        m.userSend.snapshot(),
		SysSend:         m.sysSend.snapshot(),
		RemoteAccess:    m.remoteAcc.snapshot(),
		GetReply:        m.getReply.snapshot(),
		RemoteLoadReply: m.rloadReply.snapshot(),
	}
}
