package machine

// The remote atomic suite: the generalization of the MC's S4.1
// fetch-and-increment into FetchAdd / Add / CompareAndSwap / Swap /
// Min / Max on 8-byte cell-memory words. Requests travel as OpAtomic
// commands through the ordinary doorbell path, execute at the owning
// cell's controller under the reliable layer's dedup gate (exactly
// once), and answer inline with OpAtomicReply. Fetching operations
// block the issuing CPU like a remote load; non-fetching updates are
// fire-and-forget, fenced through mc.AtomicAckFlagID. With
// Config.Combining, same-word combinable requests meet where the
// delivery workers drain their cells: they join one fold, which leaves
// as one request whose reply decombines here.

import (
	"fmt"

	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/tnet"
	"ap1000plus/internal/topology"
)

// atomicResult is one fetching atomic's completion.
type atomicResult struct {
	val int64
	ok  bool
}

// newAtomicWaiter registers a completion callback and returns its
// tag. Tags are never 0 (0 marks a non-fetching update on the wire).
func (c *Cell) newAtomicWaiter(fn func(val int64, ok bool, exec sanClock)) int64 {
	c.atomicMu.Lock()
	defer c.atomicMu.Unlock()
	c.atomicSeq++
	if c.atomicWait == nil {
		c.atomicWait = make(map[int64]func(val int64, ok bool, exec sanClock))
	}
	c.atomicWait[c.atomicSeq] = fn
	return c.atomicSeq
}

// completeAtomic resolves a fetching atomic's tag. Unknown tags are
// tolerated silently — under a fault plan the owner may replay a
// result whose original reply already completed the waiter (unlike
// completeLoad, where an unknown tag is a protocol fault).
func (c *Cell) completeAtomic(tag, val int64, ok bool, exec sanClock) {
	c.atomicMu.Lock()
	fn := c.atomicWait[tag]
	delete(c.atomicWait, tag)
	c.atomicMu.Unlock()
	if fn != nil {
		fn(val, ok, exec)
	}
}

// atomicFetch issues one fetching atomic and blocks for its result,
// through the privileged remote-access queue like a remote load.
func (c *Cell) atomicFetch(dst topology.CellID, raddr mem.Addr, op mc.AtomicOp, operand, cmp int64) (int64, error) {
	tag := c.newAtomicWaiter(c.atomicDone)
	cmd := msc.Command{
		Op: msc.OpAtomic, Src: c.id, Dst: dst,
		RAddr: raddr, AOp: op, AVal: operand, ACmp: cmp, Tag: tag,
	}
	c.sanIssue(&cmd)
	c.obsIssue(&cmd)
	c.push(qRemote, cmd)
	res := <-c.atomicCh
	if !res.ok {
		return 0, fmt.Errorf("machine: atomic %s %d->%d @%#x faulted", op, c.id, dst, raddr)
	}
	return res.val, nil
}

// atomicUpdate issues one non-fetching atomic (fire-and-forget); its
// acknowledgement raises mc.AtomicAckFlagID, which FenceAtomics
// counts against the issue counter.
func (c *Cell) atomicUpdate(dst topology.CellID, raddr mem.Addr, op mc.AtomicOp, operand int64) {
	c.atoms.Add(1)
	cmd := msc.Command{
		Op: msc.OpAtomic, Src: c.id, Dst: dst,
		RAddr: raddr, AOp: op, AVal: operand,
	}
	c.sanIssue(&cmd)
	c.obsIssue(&cmd)
	c.push(qRemote, cmd)
}

// FetchAdd atomically adds delta to the 8-byte word at raddr on dst
// and returns the word's previous value. Blocking, like a remote
// load; the addition wraps like the hardware's 64-bit adder.
func (c *Cell) FetchAdd(dst topology.CellID, raddr mem.Addr, delta int64) (int64, error) {
	return c.atomicFetch(dst, raddr, mc.AtomicFetchAdd, delta, 0)
}

// CompareAndSwap atomically stores newVal into the word at raddr on
// dst iff the word equals oldVal, returning the previous value either
// way (compare against oldVal to learn whether the swap happened).
func (c *Cell) CompareAndSwap(dst topology.CellID, raddr mem.Addr, oldVal, newVal int64) (int64, error) {
	return c.atomicFetch(dst, raddr, mc.AtomicCAS, newVal, oldVal)
}

// Swap atomically stores v into the word at raddr on dst and returns
// the previous value.
func (c *Cell) Swap(dst topology.CellID, raddr mem.Addr, v int64) (int64, error) {
	return c.atomicFetch(dst, raddr, mc.AtomicSwap, v, 0)
}

// AtomicAdd atomically adds delta to the word at raddr on dst without
// returning a value (non-blocking; fence with FenceAtomics).
func (c *Cell) AtomicAdd(dst topology.CellID, raddr mem.Addr, delta int64) {
	c.atomicUpdate(dst, raddr, mc.AtomicAdd, delta)
}

// AtomicMin atomically lowers the word at raddr on dst to v if v is
// smaller (signed; non-blocking).
func (c *Cell) AtomicMin(dst topology.CellID, raddr mem.Addr, v int64) {
	c.atomicUpdate(dst, raddr, mc.AtomicMin, v)
}

// AtomicMax atomically raises the word at raddr on dst to v if v is
// larger (signed; non-blocking).
func (c *Cell) AtomicMax(dst topology.CellID, raddr mem.Addr, v int64) {
	c.atomicUpdate(dst, raddr, mc.AtomicMax, v)
}

// AtomicsIssued reports how many non-fetching atomics this cell has
// issued; with Flags.Wait on mc.AtomicAckFlagID it forms the atomic
// fence.
func (c *Cell) AtomicsIssued() int64 { return c.atoms.Load() }

// FenceAtomics blocks until every non-fetching atomic issued by this
// cell so far has been acknowledged (or abandoned under the fault
// plan's retry budget — the fence means settled, not succeeded; check
// Machine.FaultErr for losses).
func (c *Cell) FenceAtomics() {
	c.Flags.Wait(mc.AtomicAckFlagID, c.atoms.Load())
}

// routeAtomic sends a queued atomic request toward its owner — the
// controller-side half of the issue path. With combining armed, a
// combinable request joins an open fold instead.
func (m *Machine) routeAtomic(c *Cell, cmd *msc.Command, exec sanClock) {
	if m.cfg.Combining && cmd.AOp.Combinable() {
		m.pool.workers[c.shard].join(c, cmd, exec)
		return
	}
	m.sendAtomic(c, cmd, exec)
}

// sendAtomic transmits one atomic request; when the retry budget runs
// out it settles the request's waiter or fence so no CPU hangs on a
// result that can never arrive.
func (m *Machine) sendAtomic(c *Cell, cmd *msc.Command, exec sanClock) {
	var pkt tnet.Packet
	pkt.Head = *cmd
	pkt.SanTid = exec.tid
	if !m.xmit(c, &pkt) {
		if cmd.Tag != 0 {
			c.completeAtomic(cmd.Tag, 0, false, exec)
		} else {
			// Settle the fence; the CellFault records the loss.
			c.Flags.Inc(mc.AtomicAckFlagID)
		}
	}
}

// foldKey addresses one open fold: requests join when they share the
// owner, the word, the operation and the shard. A fetching request's
// key has shard -1, so it joins a fold opened by any worker: its CPU
// blocks until the decombined reply, so no later command of its cell
// can overtake the fold. A non-fetching update's key carries its
// worker's shard, so the fold leaves through the same outbox as the
// member's later commands, and ahead of them.
type foldKey struct {
	dst   topology.CellID
	addr  mem.Addr
	op    mc.AtomicOp
	shard int
}

// fold is one combined request being assembled: the first member's
// command with every member's operand folded into AVal, that member's
// sanitizer thread, and the members in join order.
type fold struct {
	key     foldKey
	cmd     msc.Command
	exec    sanClock
	members []foldMember
}

// foldMember is one request of a fold; tag 0 marks a non-fetching
// update.
type foldMember struct {
	cell       topology.CellID
	tag, delta int64
}

// join adds c's combinable request to the open fold for its key, or
// opens one that this worker will emit. An open fold holds one unit of
// its partition's quiesce counter until emit has flushed it. A
// non-fetching member's cell stays marked folded so process emits
// before the cell's next command leaves.
func (w *worker) join(c *Cell, cmd *msc.Command, exec sanClock) {
	key := foldKey{cmd.Dst, cmd.RAddr, cmd.AOp, -1}
	if cmd.Tag == 0 {
		key.shard = w.shard
		c.folded = true
	}
	mb := foldMember{c.id, cmd.Tag, cmd.AVal}
	p := w.m.pool
	p.foldMu.Lock()
	if f := p.foldAt[key]; f != nil {
		f.cmd.AVal = mc.CombineAtomic(cmd.AOp, f.cmd.AVal, cmd.AVal)
		f.members = append(f.members, mb)
		p.foldMu.Unlock()
		if o := w.m.obs; o != nil {
			o.Cell(int(c.id)).AtomicsCombined.Add(1)
			if tl := o.Timeline(); tl != nil {
				tl.Instant(int(c.id), obs.TidMSC, "atomic", "combine", o.NowUs())
			}
		}
		return
	}
	f := &fold{key: key, cmd: *cmd, exec: exec, members: []foldMember{mb}}
	p.foldAt[key] = f
	p.foldMu.Unlock()
	w.folds = append(w.folds, f)
	c.part.q.add(1)
}

// emit closes and sends every fold this worker opened, flushes the
// shard's outbox, and only then releases the folds' quiesce units. A
// lone member leaves as its own command; several share one waiter on
// the first member's cell, which decombines the reply.
func (w *worker) emit() {
	m := w.m
	m.pool.foldMu.Lock()
	for _, f := range w.folds {
		delete(m.pool.foldAt, f.key)
	}
	m.pool.foldMu.Unlock()
	for _, f := range w.folds {
		c := m.cells[f.cmd.Src]
		if len(f.members) > 1 {
			members, op := f.members, f.cmd.AOp
			f.cmd.Tag = c.newAtomicWaiter(func(val int64, ok bool, exec sanClock) {
				m.decombine(members, op, val, ok, exec)
			})
		}
		m.sendAtomic(c, &f.cmd, f.exec)
		if f.key.shard >= 0 {
			for _, mb := range f.members {
				m.cells[mb.cell].folded = false
			}
		}
	}
	m.tnet.Flush(w.shard)
	for _, f := range w.folds {
		m.cells[f.cmd.Src].part.q.add(-1)
	}
	clear(w.folds)
	w.folds = w.folds[:0]
}

// decombine hands each member of a combined request its share of the
// reply in join order: for fetch-add, member i observes base plus the
// deltas joined before it (the Ultracomputer de-combining rule, exact
// under wrapping addition); non-fetching members need only their
// fence acks. A failed reply (ok false) settles every member.
func (m *Machine) decombine(members []foldMember, op mc.AtomicOp, base int64, ok bool, exec sanClock) {
	prefix := base
	for _, mb := range members {
		cell := m.cells[mb.cell]
		if mb.tag != 0 {
			cell.completeAtomic(mb.tag, prefix, ok, exec)
		} else {
			m.sanFlagInc(exec, int(mb.cell), mc.AtomicAckFlagID)
			cell.Flags.Inc(mc.AtomicAckFlagID)
		}
		if op == mc.AtomicFetchAdd || op == mc.AtomicAdd {
			prefix += mb.delta
		}
	}
}

// execAtomic is the owner-side RMW: translate the word address, read-
// modify-write the word, and report the old word or a fault. It needs
// no lock: its one caller is receive, which runs on the owner cell's
// own delivery worker (a same-shard sender is that worker, a
// cross-shard request crossed a link to it, and the Inline DSM notices
// that run elsewhere carry no atomic), so one goroutine executes every
// atomic on a cell's memory, in delivery order. Atomics are
// synchronization operations like the flag incrementer, so no
// sanitizer access is recorded for the RMW itself.
func (c *Cell) execAtomic(cmd *msc.Command) (old int64, faulted bool) {
	if _, err := c.MMU.Translate(cmd.RAddr, 8); err != nil {
		c.OS.interrupt(IntrPageFault)
		c.OS.fault(fmt.Errorf("machine: cell %d: atomic %s: %w", c.id, cmd.AOp, err))
		return 0, true
	}
	word, err := c.Mem.LoadWord8(cmd.RAddr)
	if err == nil {
		stored, _ := mc.ApplyAtomic(cmd.AOp, int64(word), cmd.AVal, cmd.ACmp)
		err = c.Mem.StoreWord8(cmd.RAddr, uint64(stored))
	}
	if err != nil {
		c.OS.interrupt(IntrPageFault)
		c.OS.fault(fmt.Errorf("machine: cell %d: atomic %s: %w", c.id, cmd.AOp, err))
		return 0, true
	}
	if o := c.machine.obs; o != nil {
		o.Cell(int(c.id)).AtomicsExecuted.Add(1)
		if tl := o.Timeline(); tl != nil {
			tl.Instant(int(c.id), obs.TidMSC, "atomic", cmd.AOp.String(), o.NowUs())
		}
	}
	return int64(word), false
}

// replayAtomic serves a duplicated atomic request from the link's
// result-replay cache: the RMW must not re-execute (a replayed
// fetch-add is observable), but the requester may still be waiting —
// its copy of the reply can have been lost — so the owner re-sends
// the cached result. Non-fetching duplicates need nothing: their only
// observable effect is the fence ack the original reply carried, and
// replaying it would double-count the fence.
func (c *Cell) replayAtomic(p *tnet.Packet) {
	cmd := &p.Head
	if cmd.Tag == 0 {
		return
	}
	m := c.machine
	val, ok := m.rel.cachedResult(cmd.Src, cmd.Dst, cmd.Seq)
	if !ok {
		// Aged out of the bounded window (or the original execution
		// faulted); the original reply stands on its own.
		return
	}
	if o := m.obs; o != nil {
		o.Cell(int(c.id)).AtomicReplays.Add(1)
		if tl := o.Timeline(); tl != nil {
			tl.Instant(int(c.id), obs.TidMSC, "atomic", "replay", o.NowUs())
		}
	}
	reply := msc.Command{
		Op: msc.OpAtomicReply, Src: c.id, Dst: cmd.Src,
		RAddr: cmd.RAddr, AOp: cmd.AOp, AVal: val, Tag: cmd.Tag,
	}
	pkt := tnet.Packet{Head: reply, SanTid: -1}
	if s := m.san; s != nil {
		// The original reply carries the request's token (cmd.San is
		// that handle); the replay runs under a copy of it, never the
		// requester's live clock. Once the original is consumed the
		// replay settles its waiter, if any, without sanitizer hooks.
		if pkt.Head.San = s.Copy(cmd.San); pkt.Head.San != 0 {
			pkt.SanTid = p.SanTid
		}
	}
	m.xmit(c, &pkt)
}
