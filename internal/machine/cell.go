package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ap1000plus/internal/bnet"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// MessageSink consumes SEND-model messages arriving at a cell; the
// sendrecv package installs a ring buffer here.
type MessageSink func(port int32, src topology.CellID, payload *mem.Payload)

// Cell is one processing element: SuperSPARC context, memory, MC and
// MSC+ state (Figure 5).
type Cell struct {
	id      topology.CellID
	machine *Machine
	// part is the partition the cell belongs to; its quiesce counter
	// tracks this cell's in-flight work for the partition drain.
	part *Partition

	// Mem is the cell's DRAM.
	Mem *mem.Space
	// MMU is the MC's address translator.
	MMU *mc.MMU
	// Flags is the cell's synchronization flag file, incremented by
	// the MC's fetch-and-increment on DMA completion.
	Flags *mc.Flags
	// Cregs are the 128 communication registers with p-bits.
	Cregs *mc.CommRegs
	// MSC is the message controller's queue front end.
	MSC *msc.MSC
	// OS is the cell's operating system state (interrupt and fault
	// logs).
	OS *OS

	rec *trace.Recorder

	// cpu is the goroutine that runs this cell's job programs.
	cpu cpu

	sinkMu sync.RWMutex
	sink   MessageSink

	loadMu  sync.Mutex
	loadSeq int64
	loads   map[int64]chan *mem.Payload

	bcastMu   sync.Mutex
	bcastCond *sync.Cond
	bcasts    []bcastMsg

	rstores atomic.Int64 // remote stores issued (for fencing)
	atoms   atomic.Int64 // non-fetching atomics issued (for fencing)

	// atomicWait holds the pending fetching-atomic completions by tag:
	// a plain waiter forwards the fetched value to the issuing CPU's
	// channel, a fold's waiter decombines the reply for its members.
	// Tag 0 is reserved for non-fetching updates (no waiter).
	atomicMu   sync.Mutex
	atomicSeq  int64
	atomicWait map[int64]func(val int64, ok bool, exec sanClock)
	// atomicCh and atomicDone carry the result of the one fetching
	// atomic the cell's program goroutine can have outstanding: built
	// once, because a channel and a waiter per operation made every
	// remote fetch-and-add allocate.
	atomicCh   chan atomicResult
	atomicDone func(val int64, ok bool, exec sanClock)

	// dsmHooks connects the cell's MSC+ to the DSM page-cache
	// directory when write-through paging is enabled (nil otherwise,
	// which keeps the remote-access paths hook-free).
	dsmHooks atomic.Pointer[DSMHooks]

	// dirty is the cell's delivery doorbell: set by the first producer
	// to push into an empty-scheduled MSC, cleared by the owning worker
	// at the top of each drain.
	dirty atomic.Bool
	// folded marks a request of this cell held in an open combining
	// fold. Owned by the cell's worker; it sits in dirty's padding, so
	// the cell's layout is the same with and without combining.
	folded bool
	// shard is the delivery worker this cell is pinned to (id mod W).
	shard int

	// invalLines counts cache lines invalidated by message reception:
	// "Invalidation of cache is done at the time of message
	// reception. This means that data reception from a network does
	// not prevent user program execution" (S4.1). The SuperSPARC's
	// 36 KB write-through cache uses 32-byte lines.
	invalLines atomic.Int64
}

// CacheLineBytes is the cache line size used for invalidation
// accounting.
const CacheLineBytes = 32

// CacheInvalidations reports how many cache lines the receive
// hardware invalidated on this cell.
func (c *Cell) CacheInvalidations() int64 { return c.invalLines.Load() }

type bcastMsg struct {
	src     topology.CellID
	tag     int64
	payload *mem.Payload
}

func newCell(m *Machine, id topology.CellID) (*Cell, error) {
	space, err := mem.NewSpace(m.cfg.MemoryPerCell)
	if err != nil {
		return nil, err
	}
	c := &Cell{
		id:      id,
		machine: m,
		part:    m.parts[m.partOf[id]],
		Mem:     space,
		MMU:     mc.NewMMU(mc.DefaultTLB),
		Flags:   mc.NewFlags(),
		Cregs:   mc.NewCommRegs(),
		OS:      newOS(),
		loads:   make(map[int64]chan *mem.Payload),

		atomicCh: make(chan atomicResult, 1),
	}
	c.atomicDone = func(val int64, ok bool, _ sanClock) { c.atomicCh <- atomicResult{val, ok} }
	c.cpu.wake = make(chan struct{}, 1)
	c.cpu.run = c.cpuLoop
	// Lock-free MSC front whose doorbell schedules this cell on its
	// delivery shard.
	c.shard = int(id) % m.pool.shards()
	c.MSC = msc.NewRing(m.cfg.QueueWords, func() { m.notifyCell(c) })
	c.bcastCond = sync.NewCond(&c.bcastMu)
	if m.ts != nil {
		c.rec = trace.NewRecorder()
	}
	if m.cfg.Sanitize {
		// Flag waits run on the owning cell's program goroutine; a
		// satisfied wait acquires everything released into the flag.
		// The sanitizer is read through the machine on every wait:
		// Open rebuilds it for each epoch of a reopened machine.
		c.Flags.SetWaitObserver(func(f mc.FlagID) {
			s := m.san
			s.FlagWaited(s.CPU(int(id)), int(id), int32(f))
		})
	}
	if o := m.obs; o != nil {
		cc := o.Cell(int(id))
		pid := int(id)
		// Stall timing: the span starts only when a Wait actually
		// blocks, so uncontended flag checks cost nothing extra.
		c.Flags.SetWaitSpan(func(f mc.FlagID) func() {
			start := time.Now()
			return func() {
				d := time.Since(start)
				cc.FlagWaits.Add(1)
				cc.FlagWaitNanos.Add(d.Nanoseconds())
				if tl := o.Timeline(); tl != nil {
					end := o.NowUs()
					tl.Slice(pid, obs.TidCPU, "stall", "flag-wait", end-float64(d.Nanoseconds())/1e3, float64(d.Nanoseconds())/1e3)
				}
			}
		})
		c.OS.obsHook = func(cause InterruptCause) {
			cc.Interrupts.Add(1)
			if tl := o.Timeline(); tl != nil {
				tl.Instant(pid, obs.TidMSC, "interrupt", cause.String(), o.NowUs())
			}
		}
		c.MSC.SetObserver(
			func(queue string, n int) {
				cc.Spills.Add(int64(n))
				if tl := o.Timeline(); tl != nil {
					tl.Instant(pid, obs.TidMSC, "queue", "spill:"+queue, o.NowUs())
				}
			},
			func(queue string, n int) {
				cc.Refills.Add(int64(n))
				if tl := o.Timeline(); tl != nil {
					tl.Instant(pid, obs.TidMSC, "queue", "refill:"+queue, o.NowUs())
				}
			})
	}
	return c, nil
}

// ID reports the cell's number.
func (c *Cell) ID() topology.CellID { return c.id }

// N reports the total number of cells in the machine.
func (c *Cell) N() int { return c.machine.Cells() }

// Machine returns the owning machine.
func (c *Cell) Machine() *Machine { return c.machine }

// Reaches reports whether c's MSC+ can address dst: a valid cell in
// c's own partition (partitions have disjoint T-net routing).
func (c *Cell) Reaches(dst topology.CellID) bool {
	m := c.machine
	return m.torus.Valid(dst) && m.partOf[dst] == m.partOf[c.id]
}

// Recorder returns the cell's trace recorder, or nil when tracing is
// disabled. Layered packages (core, vpp, sendrecv, barrier) record
// their library entry points here, mirroring the paper's probes.
func (c *Cell) Recorder() *trace.Recorder { return c.rec }

// RecordCompute charges dur microseconds of base-SPARC computation to
// the trace (no-op when tracing is off).
func (c *Cell) RecordCompute(dur float64) {
	if c.rec != nil {
		c.rec.Compute(dur)
	}
}

// Alloc allocates a segment of local memory and maps its pages in the
// MMU, as the OS does when a program's data is placed.
func (c *Cell) Alloc(name string, kind mem.Kind, size int64) (*mem.Segment, error) {
	seg, err := c.Mem.Alloc(name, kind, size)
	if err != nil {
		return nil, err
	}
	c.MMU.Map(seg.Base(), seg.Size())
	return seg, nil
}

// AllocFloat64 allocates and maps a float64 segment of n elements.
func (c *Cell) AllocFloat64(name string, n int) (*mem.Segment, []float64, error) {
	seg, err := c.Alloc(name, mem.Float64, int64(n)*8)
	if err != nil {
		return nil, nil, err
	}
	return seg, seg.Float64Data(), nil
}

// AllocBytes allocates and maps a byte segment.
func (c *Cell) AllocBytes(name string, size int64) (*mem.Segment, []byte, error) {
	seg, err := c.Alloc(name, mem.Bytes, size)
	if err != nil {
		return nil, nil, err
	}
	return seg, seg.BytesData(), nil
}

// SetMessageSink installs the SEND/RECEIVE delivery hook (ring
// buffer). Installing twice panics: the hardware has one ring-buffer
// manager.
func (c *Cell) SetMessageSink(s MessageSink) {
	c.sinkMu.Lock()
	defer c.sinkMu.Unlock()
	if c.sink != nil && s != nil {
		panic(fmt.Sprintf("machine: cell %d message sink already installed", c.id))
	}
	c.sink = s
}

// HWBarrier arrives at the cell's partition-wide S-net hardware
// barrier (all cells of the machine when it is unpartitioned).
func (c *Cell) HWBarrier() {
	var start time.Time
	o := c.machine.obs
	if o != nil {
		start = time.Now()
	}
	if s := c.machine.san; s != nil {
		cpu := s.CPU(int(c.id))
		tok := s.BarrierArrive(cpu, c.part.index, c.part.n)
		c.machine.snet.Arrive(int(c.id))
		s.BarrierDone(cpu, tok)
	} else {
		c.machine.snet.Arrive(int(c.id))
	}
	if o != nil {
		d := time.Since(start)
		cc := o.Cell(int(c.id))
		cc.Barriers.Add(1)
		cc.BarrierStallNanos.Add(d.Nanoseconds())
		if tl := o.Timeline(); tl != nil {
			end := o.NowUs()
			tl.Slice(int(c.id), obs.TidCPU, "stall", "barrier", end-float64(d.Nanoseconds())/1e3, float64(d.Nanoseconds())/1e3)
		}
	}
}

// push routes a command into this cell's MSC, tracking it on the
// cell's partition for drain.
func (c *Cell) push(kind queueKind, cmd msc.Command) {
	c.part.q.add(1)
	switch kind {
	case qUser:
		c.MSC.PushUser(cmd)
	case qSystem:
		c.MSC.PushSystem(cmd)
	case qRemote:
		c.MSC.PushRemoteAccess(cmd)
	case qGetReply:
		c.MSC.PushGetReply(cmd)
	case qRloadReply:
		c.MSC.PushRemoteLoadReply(cmd)
	}
}

type queueKind uint8

const (
	qUser queueKind = iota
	qSystem
	qRemote
	qGetReply
	qRloadReply
)

// sanIssue attaches the issuing CPU's released clock to a command
// about to be queued. No-op (one nil check) when unsanitized.
func (c *Cell) sanIssue(cmd *msc.Command) {
	if s := c.machine.san; s != nil {
		cmd.San = s.ReleaseHandle(s.CPU(int(c.id)))
	}
}

// obsIssue counts a command at its issue point. No-op (one nil check,
// no allocation) when the machine is unobserved. The zero-address GET
// the runtime issues behind an acknowledged PUT is counted as AckGet,
// not Get, so Put/Get totals match trace.Stats, which excludes acks.
func (c *Cell) obsIssue(cmd *msc.Command) {
	o := c.machine.obs
	if o == nil {
		return
	}
	cc := o.Cell(int(c.id))
	switch cmd.Op {
	case msc.OpPut:
		if cmd.LStride.Count > 1 || cmd.RStride.Count > 1 {
			cc.PutS.Add(1)
		} else {
			cc.Put.Add(1)
		}
		cc.PutBytes.Add(cmd.LStride.Total())
	case msc.OpGet:
		if cmd.RAddr == 0 {
			cc.AckGet.Add(1)
		} else {
			if cmd.LStride.Count > 1 || cmd.RStride.Count > 1 {
				cc.GetS.Add(1)
			} else {
				cc.Get.Add(1)
			}
			cc.GetBytes.Add(cmd.RStride.Total())
		}
	case msc.OpSend:
		cc.Send.Add(1)
		cc.SendBytes.Add(cmd.LStride.Total())
	case msc.OpRemoteStore:
		cc.RemoteStore.Add(1)
	case msc.OpRemoteLoad:
		cc.RemoteLoad.Add(1)
	case msc.OpAtomic:
		cc.Atomics.Add(1)
	}
	if tl := o.Timeline(); tl != nil {
		tl.Instant(int(c.id), obs.TidCPU, "issue", cmd.Op.String(), o.NowUs())
	}
}

// PushUser submits a user-level PUT/GET/SEND command — the paper's
// "write the parameters one-by-one to the special address" interface.
// The call never blocks: queue overflow spills to DRAM.
func (c *Cell) PushUser(cmd msc.Command) {
	cmd.Src = c.id
	if cmd.Op == msc.OpAtomic && cmd.Tag == 0 {
		c.atoms.Add(1) // non-fetching update: FenceAtomics counts it
	}
	c.sanIssue(&cmd)
	c.obsIssue(&cmd)
	c.push(qUser, cmd)
}

// PushUserBatch submits a run of user commands with one doorbell: the
// source stamp, the sanitizer release, the observability counters, the
// drain accounting and the MSC+ lock are each paid once per batch
// instead of once per command. Semantically identical to calling
// PushUser for each command in order.
func (c *Cell) PushUserBatch(cmds []msc.Command) {
	if len(cmds) == 0 {
		return
	}
	for i := range cmds {
		cmds[i].Src = c.id
		if cmds[i].Op == msc.OpAtomic && cmds[i].Tag == 0 {
			c.atoms.Add(1)
		}
	}
	if s := c.machine.san; s != nil {
		// One released clock covers the whole batch: every command in
		// it is popped by this cell's one controller thread, whose
		// first acquire joins the issuing CPU's clock. The rest carry
		// the same handle; acquiring an already-consumed handle is a
		// no-op, and clocks only grow, so ordering is preserved.
		h := s.ReleaseHandle(s.CPU(int(c.id)))
		for i := range cmds {
			cmds[i].San = h
		}
	}
	c.obsIssueBatch(cmds)
	c.part.q.add(int64(len(cmds)))
	c.MSC.PushUserBatch(cmds)
}

// obsIssueBatch is obsIssue amortized over a batch: counters
// accumulate in locals and flush with one atomic add per class, and
// the timeline gets a single issue instant for the whole batch.
func (c *Cell) obsIssueBatch(cmds []msc.Command) {
	o := c.machine.obs
	if o == nil {
		return
	}
	var put, putS, putBytes int64
	var get, getS, ackGet, getBytes int64
	var send, sendBytes, rStore, rLoad, atoms int64
	for i := range cmds {
		cmd := &cmds[i]
		switch cmd.Op {
		case msc.OpPut:
			if cmd.LStride.Count > 1 || cmd.RStride.Count > 1 {
				putS++
			} else {
				put++
			}
			putBytes += cmd.LStride.Total()
		case msc.OpGet:
			if cmd.RAddr == 0 {
				ackGet++
			} else {
				if cmd.LStride.Count > 1 || cmd.RStride.Count > 1 {
					getS++
				} else {
					get++
				}
				getBytes += cmd.RStride.Total()
			}
		case msc.OpSend:
			send++
			sendBytes += cmd.LStride.Total()
		case msc.OpRemoteStore:
			rStore++
		case msc.OpRemoteLoad:
			rLoad++
		case msc.OpAtomic:
			atoms++
		}
	}
	cc := o.Cell(int(c.id))
	for _, u := range [...]struct {
		ctr *atomic.Int64
		n   int64
	}{
		{&cc.Put, put}, {&cc.PutS, putS}, {&cc.PutBytes, putBytes},
		{&cc.Get, get}, {&cc.GetS, getS}, {&cc.AckGet, ackGet}, {&cc.GetBytes, getBytes},
		{&cc.Send, send}, {&cc.SendBytes, sendBytes},
		{&cc.RemoteStore, rStore}, {&cc.RemoteLoad, rLoad},
		{&cc.Atomics, atoms},
	} {
		if u.n != 0 {
			u.ctr.Add(u.n)
		}
	}
	if tl := o.Timeline(); tl != nil {
		tl.Instant(int(c.id), obs.TidCPU, "issue", "batch", o.NowUs())
	}
}

// PushSystem submits a system-level command through the separate
// system queue.
func (c *Cell) PushSystem(cmd msc.Command) {
	cmd.Src = c.id
	c.sanIssue(&cmd)
	c.obsIssue(&cmd)
	c.push(qSystem, cmd)
}

// newLoadWaiter registers a pending remote load and returns its tag
// and completion channel.
func (c *Cell) newLoadWaiter() (int64, chan *mem.Payload) {
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	c.loadSeq++
	ch := make(chan *mem.Payload, 1)
	c.loads[c.loadSeq] = ch
	return c.loadSeq, ch
}

func (c *Cell) completeLoad(tag int64, p *mem.Payload) {
	c.loadMu.Lock()
	ch, ok := c.loads[tag]
	delete(c.loads, tag)
	c.loadMu.Unlock()
	if !ok {
		c.OS.fault(fmt.Errorf("machine: cell %d: remote load reply for unknown tag %d", c.id, tag))
		return
	}
	ch <- p
}

// RemoteLoad performs a blocking load of size bytes from raddr on
// dst, through the privileged remote-access queue (S4.2: "remote load
// is blocking"). It returns the loaded payload.
func (c *Cell) RemoteLoad(dst topology.CellID, raddr mem.Addr, size int64) (*mem.Payload, error) {
	return c.remoteLoad(dst, raddr, size, false, 0)
}

// RemoteLoadCaching is RemoteLoad with the command's cache-fill bit
// set: the owning cell's MSC+ registers this cell as a sharer of the
// loaded page before capturing the reply, so a later write-through
// store to the page invalidates this cell's cached copy. epoch is the
// loading cell's fill generation for the page, registered with the
// sharer entry so a silent-eviction notice can be ranked against
// later re-fills. Only the DSM page cache issues these.
func (c *Cell) RemoteLoadCaching(dst topology.CellID, raddr mem.Addr, size int64, epoch int32) (*mem.Payload, error) {
	return c.remoteLoad(dst, raddr, size, true, epoch)
}

func (c *Cell) remoteLoad(dst topology.CellID, raddr mem.Addr, size int64, caching bool, epoch int32) (*mem.Payload, error) {
	if size <= 0 {
		return nil, fmt.Errorf("machine: remote load of %d bytes", size)
	}
	tag, ch := c.newLoadWaiter()
	cmd := msc.Command{
		Op: msc.OpRemoteLoad, Src: c.id, Dst: dst,
		RAddr: raddr, RStride: mem.Contiguous(size), Tag: tag,
		CacheFill: caching, Port: epoch,
	}
	c.sanIssue(&cmd)
	c.obsIssue(&cmd)
	c.push(qRemote, cmd)
	p := <-ch
	if p == nil {
		return nil, fmt.Errorf("machine: remote load %d<-%d @%#x faulted", c.id, dst, raddr)
	}
	c.SanAcquirePayload(p)
	return p, nil
}

// RemoteStore performs a non-blocking store of the local range
// [laddr, laddr+size) into raddr on dst. The MSC+ acknowledges
// automatically; completion is observed on the cell's AckFlag.
func (c *Cell) RemoteStore(dst topology.CellID, raddr, laddr mem.Addr, size int64) {
	c.rstores.Add(1)
	cmd := msc.Command{
		Op: msc.OpRemoteStore, Src: c.id, Dst: dst,
		RAddr: raddr, LAddr: laddr,
		RStride: mem.Contiguous(size), LStride: mem.Contiguous(size),
	}
	c.sanIssue(&cmd)
	c.obsIssue(&cmd)
	c.push(qRemote, cmd)
}

// Broadcast sends the local range over the B-net to every cell's
// broadcast inbox.
func (c *Cell) Broadcast(laddr mem.Addr, size int64, tag int64) error {
	c.SanRead(laddr, mem.Contiguous(size), "BROADCAST source read")
	p, err := mem.CapturePayload(c.Mem, laddr, mem.Contiguous(size))
	if err != nil {
		return err
	}
	if s := c.machine.san; s != nil {
		p.SetSan(s.Release(s.CPU(int(c.id))))
	}
	failed := c.machine.bnet.Broadcast(bnet.Message{Src: c.id, Payload: p, Tag: tag})
	c.machine.broadcastFault(c, failed)
	return nil
}

// RecvBroadcast blocks until a broadcast with the given tag arrives
// and returns its payload.
func (c *Cell) RecvBroadcast(tag int64) *mem.Payload {
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	for {
		for i, b := range c.bcasts {
			if b.tag == tag {
				c.bcasts = append(c.bcasts[:i], c.bcasts[i+1:]...)
				c.SanAcquirePayload(b.payload)
				return b.payload
			}
		}
		c.bcastCond.Wait()
	}
}

// RemoteStoresIssued reports how many remote stores this cell has
// issued; with Flags.Wait on mc.RemoteAckFlagID it forms a store
// fence (every issued store acknowledged).
func (c *Cell) RemoteStoresIssued() int64 { return c.rstores.Load() }

// FenceRemoteStores blocks until every remote store issued by this
// cell so far has been acknowledged by its destination MSC+.
func (c *Cell) FenceRemoteStores() {
	c.Flags.Wait(mc.RemoteAckFlagID, c.rstores.Load())
}

// resetJob clears job-scoped state between gang-scheduled jobs, so
// the second job on a partition starts from the same architectural
// state a fresh machine would give it: the flag file, communication
// registers, message sink, pending remote loads, broadcast inbox,
// pending atomics, fence counters, DSM hooks and the OS logs.
// Machine-lifetime state survives — memory segments and MMU mappings
// (the OS does not scrub DRAM between jobs), cumulative metrics
// counters, and trace recorders. Only called with the partition idle:
// no job running, communication fully drained.
func (c *Cell) resetJob() {
	c.Flags.ResetAll()
	c.Cregs.Clear()
	c.sinkMu.Lock()
	c.sink = nil
	c.sinkMu.Unlock()
	c.loadMu.Lock()
	clear(c.loads)
	c.loadSeq = 0
	c.loadMu.Unlock()
	c.bcastMu.Lock()
	c.bcasts = nil
	c.bcastMu.Unlock()
	c.atomicMu.Lock()
	clear(c.atomicWait)
	c.atomicSeq = 0
	c.atomicMu.Unlock()
	c.rstores.Store(0)
	c.atoms.Store(0)
	c.dsmHooks.Store(nil)
	c.OS.reset()
}

// SanRead records a CPU-context read of local memory with the
// sanitizer; library code (dsm, barrier, sendrecv) calls it on the
// accesses it performs on the program's behalf. No-op when the
// machine is unsanitized.
func (c *Cell) SanRead(addr mem.Addr, pat mem.Stride, op string) {
	if s := c.machine.san; s != nil {
		id := int(c.id)
		s.Access(s.CPU(id), 0, id, false, id, uint64(addr), pat.ItemSize, pat.Count, pat.Skip, op)
	}
}

// SanWrite records a CPU-context write of local memory with the
// sanitizer.
func (c *Cell) SanWrite(addr mem.Addr, pat mem.Stride, op string) {
	if s := c.machine.san; s != nil {
		id := int(c.id)
		s.Access(s.CPU(id), 0, id, true, id, uint64(addr), pat.ItemSize, pat.Count, pat.Skip, op)
	}
}

// SanAcquirePayload acquires the sanitizer clock a payload carries
// (SEND ring delivery, broadcast, remote-load reply) into this
// cell's CPU thread. No-op when unsanitized or the payload carries
// no token.
func (c *Cell) SanAcquirePayload(p *mem.Payload) {
	if s := c.machine.san; s != nil {
		s.Acquire(s.CPU(int(c.id)), p.San())
	}
}

// LoadCreg32 performs a blocking p-bit load of communication register
// idx, acquiring the storing thread's sanitizer clock. Synchronization
// protocols (group barriers, register reductions) should load through
// this instead of Cregs.Load32 so the sanitizer sees the handshake.
func (c *Cell) LoadCreg32(idx int) uint32 {
	v := c.Cregs.Load32(idx)
	if s := c.machine.san; s != nil {
		id := int(c.id)
		s.CregLoaded(s.CPU(id), id, idx, 1)
	}
	return v
}

// LoadCreg64 is LoadCreg32 for an aligned 8-byte register pair.
func (c *Cell) LoadCreg64(idx int) uint64 {
	v := c.Cregs.Load64(idx)
	if s := c.machine.san; s != nil {
		id := int(c.id)
		s.CregLoaded(s.CPU(id), id, idx, 2)
	}
	return v
}
