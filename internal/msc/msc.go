// Package msc models the AP1000+ message controller (MSC+): the five
// command queues in its RAM (three send queues — user PUT/GET, system
// PUT/GET, remote access — and two reply queues — GET reply and
// remote-load reply), the 64-word queue limit with automatic spill to
// a DRAM buffer and operating-system refill, and the command/packet
// vocabulary the send and receive controllers exchange (S4.1).
package msc

import (
	"fmt"
	"sync"

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
	Interrupts int64 // OS interrupts taken for refill management
	MaxDepth   int   // high-water mark of the hardware queue
}

// Queue is one MSC+ command queue: a fixed-capacity hardware FIFO
// that spills to a DRAM buffer when full. "All data written by the
// processor after the queue becomes full is written into the buffer
// in DRAM. When the queue empties, the MSC+ interrupts the operating
// system, which then loads data from the buffer in DRAM back into the
// queue" (S4.1). Queue is not safe for concurrent use on its own; the
// owning MSC serializes access.
type Queue struct {
	name     string
	capacity int // commands (QueueWords / CommandWords)
	// hw is the fixed hardware FIFO, a ring of capacity entries
	// (allocated on first use, never grown — this is the steady-state
	// hot path and must not allocate per command).
	hw     []Command
	hwHead int
	hwLen  int
	// spill is the DRAM overflow buffer: appended at the tail,
	// consumed from spillHead, storage reused once drained.
	spill     []Command
	spillHead int
	stats     QueueStats
	// onSpill/onRefill, when set, observe DRAM spills and OS refill
	// interrupts (observability layer). Called with the owner's lock
	// held; they must not call back into the queue. onSpill fires once
	// per Push/PushBatch with the number of commands that overflowed,
	// so a batch costs one observer event, not one per command.
	onSpill  func(queue string, n int)
	onRefill func(queue string, n int)
}

// NewQueue builds a queue holding capacityWords of commands.
func NewQueue(name string, capacityWords int) *Queue {
	if capacityWords < CommandWords {
		panic(fmt.Sprintf("msc: queue %q capacity %d below one command", name, capacityWords))
	}
	return &Queue{name: name, capacity: capacityWords / CommandWords}
}

// spillLen reports pending commands in the DRAM buffer.
func (q *Queue) spillLen() int { return len(q.spill) - q.spillHead }

// hwPush appends to the hardware ring; the caller checked capacity.
func (q *Queue) hwPush(c Command) {
	if q.hw == nil {
		q.hw = make([]Command, q.capacity)
	}
	q.hw[(q.hwHead+q.hwLen)%q.capacity] = c
	q.hwLen++
	if q.hwLen > q.stats.MaxDepth {
		q.stats.MaxDepth = q.hwLen
	}
}

// Push appends a command. It never rejects: overflow goes to the DRAM
// spill buffer exactly like the hardware.
func (q *Queue) Push(c Command) {
	q.stats.Pushes++
	if q.spillLen() > 0 || q.hwLen >= q.capacity {
		q.spill = append(q.spill, c)
		q.stats.Spills++
		if q.onSpill != nil {
			q.onSpill(q.name, 1)
		}
		return
	}
	q.hwPush(c)
}

// PushBatch appends a run of commands back-to-back: the capacity check
// and the spill observer fire per batch instead of per command. The
// overflow semantics are identical to len(cmds) Push calls — commands
// fill the hardware ring until it is full, the rest spill to DRAM in
// order.
func (q *Queue) PushBatch(cmds []Command) {
	q.stats.Pushes += int64(len(cmds))
	spilled := 0
	for _, c := range cmds {
		if q.spillLen() > 0 || q.hwLen >= q.capacity {
			q.spill = append(q.spill, c)
			spilled++
			continue
		}
		q.hwPush(c)
	}
	if spilled > 0 {
		q.stats.Spills += int64(spilled)
		if q.onSpill != nil {
			q.onSpill(q.name, spilled)
		}
	}
}

// Pop removes the oldest command. When the hardware queue drains and
// spilled commands exist, the MSC+ interrupts the OS, which refills
// the queue from DRAM.
func (q *Queue) Pop() (Command, bool) {
	if q.hwLen == 0 {
		if q.spillLen() == 0 {
			return Command{}, false
		}
		q.refill()
	}
	c := q.hw[q.hwHead]
	q.hwHead = (q.hwHead + 1) % q.capacity
	q.hwLen--
	q.stats.Pops++
	if q.hwLen == 0 && q.spillLen() > 0 {
		q.refill()
	}
	return c, true
}

func (q *Queue) refill() {
	q.stats.Interrupts++
	n := q.capacity - q.hwLen
	if l := q.spillLen(); n > l {
		n = l
	}
	for i := 0; i < n; i++ {
		q.hwPush(q.spill[q.spillHead+i])
	}
	q.spillHead += n
	if q.spillHead == len(q.spill) {
		// Fully drained: reuse the buffer's storage from the start.
		q.spill = q.spill[:0]
		q.spillHead = 0
	}
	q.stats.Refills += int64(n)
	if q.onRefill != nil {
		q.onRefill(q.name, n)
	}
}

// Len reports queued commands (hardware + spill).
func (q *Queue) Len() int { return q.hwLen + q.spillLen() }

// Stats returns a snapshot of activity counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// Name reports the queue's label.
func (q *Queue) Name() string { return q.name }

// MSC is one cell's message controller front end: the five queues.
// The CPU pushes commands; the consumer — the delivery worker that
// owns the cell — pops them in the hardware's priority order with
// TryNext/TryNextBatch. New builds the mutex-guarded reference front
// (any goroutine may push), NewRing the lock-free one the machine
// runs on.
type MSC struct {
	mu sync.Mutex

	// Send side: "three sending queues for PUT and GET requests
	// issued by the user, PUT and GET requests from the system, and
	// remote access" (S4.1).
	userSend  *Queue
	sysSend   *Queue
	remoteAcc *Queue
	// Reply side: "two reply queues, one for GET replies, and one for
	// remote load replies. Remote load replies precede GET replies."
	getReply   *Queue
	rloadReply *Queue

	closed bool

	// ring, when non-nil, replaces the mutex front end with the
	// lock-free build (NewRing): send queues become SPSC rings, the
	// two reply Queues above are shared with it under its own lock,
	// and every push rings a doorbell.
	ring *ringFront
}

// New builds an MSC+ with the hardware's 64-word queues.
func New() *MSC { return NewWithQueueWords(QueueWords) }

// NewWithQueueWords builds an MSC+ with a custom queue capacity, used
// by the queue-depth ablation.
func NewWithQueueWords(words int) *MSC {
	return &MSC{
		userSend:   NewQueue("user-send", words),
		sysSend:    NewQueue("sys-send", words),
		remoteAcc:  NewQueue("remote-access", words),
		getReply:   NewQueue("get-reply", words),
		rloadReply: NewQueue("rload-reply", words),
	}
}

// PushUser enqueues a user-level PUT/GET command. This is the paper's
// user interface: the program writes parameters "one-by-one to the
// special address" with plain stores — no system call. On the ring
// front, the caller must be the cell's single program goroutine (the
// SPMD discipline); the queue is an SPSC ring.
func (m *MSC) PushUser(c Command) {
	if f := m.ring; f != nil {
		f.checkOpen()
		f.user.push(&c)
		f.notify()
		return
	}
	m.push(m.userSend, c)
}

// PushSystem enqueues a system-issued PUT/GET. A separate queue means
// "the MSC+ does not need to save and restore the entries for the
// user" when the OS communicates.
func (m *MSC) PushSystem(c Command) {
	if f := m.ring; f != nil {
		f.checkOpen()
		f.sys.push(&c)
		f.notify()
		return
	}
	m.push(m.sysSend, c)
}

// PushRemoteAccess enqueues a hardware remote load/store. "Remote
// access uses another queue because the processor waits for a remote
// load, so remote access must be privileged."
func (m *MSC) PushRemoteAccess(c Command) {
	if f := m.ring; f != nil {
		f.checkOpen()
		f.remote.push(&c)
		f.notify()
		return
	}
	m.push(m.remoteAcc, c)
}

// PushGetReply enqueues a reply to a GET request received from the
// network. Reply pushes come from delivery context, so on the ring
// front they go through the mutex-guarded reply queues.
func (m *MSC) PushGetReply(c Command) {
	if f := m.ring; f != nil {
		f.pushReply(f.getReply, c)
		return
	}
	m.push(m.getReply, c)
}

// PushRemoteLoadReply enqueues a reply to a remote load.
func (m *MSC) PushRemoteLoadReply(c Command) {
	if f := m.ring; f != nil {
		f.pushReply(f.rloadReply, c)
		return
	}
	m.push(m.rloadReply, c)
}

func (m *MSC) push(q *Queue, c Command) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		panic("msc: push after Close")
	}
	q.Push(c)
	m.mu.Unlock()
}

// PushUserBatch enqueues a run of user commands with one doorbell —
// the descriptor-ring NIC pattern: the CPU builds the whole command
// list in memory, then rings the doorbell once. One ring suffices
// because each MSC has a single consumer, which re-scans every queue
// before it parks.
func (m *MSC) PushUserBatch(cmds []Command) {
	if len(cmds) == 0 {
		return
	}
	if f := m.ring; f != nil {
		f.checkOpen()
		for i := range cmds {
			f.user.push(&cmds[i])
		}
		f.notify()
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		panic("msc: push after Close")
	}
	m.userSend.PushBatch(cmds)
	m.mu.Unlock()
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
	if f := m.ring; f != nil {
		return f.tryNextBatch(buf)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, q := range []*Queue{m.rloadReply, m.getReply, m.remoteAcc, m.sysSend, m.userSend} {
		for n < len(buf) {
			c, ok := q.Pop()
			if !ok {
				break
			}
			buf[n] = c
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
	if f := m.ring; f != nil {
		return f.pending()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.userSend.Len() + m.sysSend.Len() + m.remoteAcc.Len() + m.getReply.Len() + m.rloadReply.Len()
}

// Close marks the MSC as shutting down: commands already queued still
// pop, pushing after Close panics — it would lose commands.
func (m *MSC) Close() {
	if f := m.ring; f != nil {
		f.closed.Store(true)
		f.notify()
		return
	}
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// Reopen reverses Close, making the MSC accept pushes again — the
// machine reuses cells across gang-scheduled jobs instead of
// rebuilding them. Only legal once the queues have fully drained and
// every consumer that observed the Close has exited.
func (m *MSC) Reopen() {
	if f := m.ring; f != nil {
		f.closed.Store(false)
		return
	}
	m.mu.Lock()
	m.closed = false
	m.mu.Unlock()
}

// SetObserver installs spill/refill observers on all five queues
// (observability layer). Install before traffic flows; the callbacks
// run with the MSC lock held and must not call back into the MSC.
// Both receive the command count of the triggering push or refill.
func (m *MSC) SetObserver(onSpill func(queue string, n int), onRefill func(queue string, n int)) {
	if f := m.ring; f != nil {
		for _, q := range []*ringQueue{f.user, f.sys, f.remote} {
			q.onSpill = onSpill
			q.onRefill = onRefill
		}
		f.replyMu.Lock()
		for _, q := range []*Queue{f.getReply, f.rloadReply} {
			q.onSpill = onSpill
			q.onRefill = onRefill
		}
		f.replyMu.Unlock()
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, q := range []*Queue{m.userSend, m.sysSend, m.remoteAcc, m.getReply, m.rloadReply} {
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
	if f := m.ring; f != nil {
		f.replyMu.Lock()
		get, rload := f.getReply.Stats(), f.rloadReply.Stats()
		f.replyMu.Unlock()
		return MSCStats{
			UserSend:        f.user.snapshot(),
			SysSend:         f.sys.snapshot(),
			RemoteAccess:    f.remote.snapshot(),
			GetReply:        get,
			RemoteLoadReply: rload,
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MSCStats{
		UserSend:        m.userSend.Stats(),
		SysSend:         m.sysSend.Stats(),
		RemoteAccess:    m.remoteAcc.Stats(),
		GetReply:        m.getReply.Stats(),
		RemoteLoadReply: m.rloadReply.Stats(),
	}
}
