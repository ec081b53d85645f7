package machine

// The remote atomic suite: the generalization of the MC's S4.1
// fetch-and-increment into FetchAdd / Add / CompareAndSwap / Swap /
// Min / Max on 8-byte cell-memory words. Requests travel as OpAtomic
// commands through the ordinary doorbell path, execute at the owning
// cell's controller under the reliable layer's dedup gate (exactly
// once), and answer inline with OpAtomicReply. Fetching operations
// block the issuing CPU like a remote load; non-fetching updates are
// fire-and-forget, fenced through mc.AtomicAckFlagID. With
// Config.Combining, combinable requests merge in the T-net's
// combining tree (see internal/tnet/combine.go) and the reply
// de-combines here.

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
func (c *Cell) newAtomicWaiter(fn func(val int64, ok bool, exec int)) int64 {
	c.atomicMu.Lock()
	defer c.atomicMu.Unlock()
	c.atomicSeq++
	if c.atomicWait == nil {
		c.atomicWait = make(map[int64]func(val int64, ok bool, exec int))
	}
	c.atomicWait[c.atomicSeq] = fn
	return c.atomicSeq
}

// completeAtomic resolves a fetching atomic's tag. Unknown tags are
// tolerated silently — under a fault plan the owner may replay a
// result whose original reply already completed the waiter (unlike
// completeLoad, where an unknown tag is a protocol fault).
func (c *Cell) completeAtomic(tag, val int64, ok bool, exec int) {
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
// controller-side half of the issue path. With combining armed and a
// combinable operation, the request enters the combining tree and may
// be absorbed without touching the wire.
func (m *Machine) routeAtomic(c *Cell, cmd *msc.Command, exec int) {
	if cb := m.comb; cb != nil && cmd.AOp.Combinable() {
		root, send := cb.Submit(c.id, cmd.Dst, cmd.RAddr, cmd.AOp, cmd.Tag, cmd.AVal)
		if !send {
			// Joined an open station: the upstream master's reply will
			// de-combine this request's result.
			if o := m.obs; o != nil {
				o.Cell(int(c.id)).AtomicsCombined.Add(1)
				if tl := o.Timeline(); tl != nil {
					tl.Instant(int(c.id), obs.TidMSC, "atomic", "combine", o.NowUs())
				}
			}
			return
		}
		// Root master: one combined request carries the whole subtree.
		out := *cmd
		out.AVal = root.Delta
		op := cmd.AOp // the waiter must not capture cmd: it would escape on every atomic
		out.Tag = c.newAtomicWaiter(func(val int64, ok bool, exec int) {
			m.decombine(root, op, val, ok, exec)
		})
		if !m.xmit(c, &tnet.Packet{Head: out, SanTid: exec}) {
			// Retry budget exhausted: settle every member so no CPU
			// hangs on a result that can never arrive.
			c.completeAtomic(out.Tag, 0, false, exec)
		}
		return
	}
	var pkt tnet.Packet
	pkt.Head = *cmd
	pkt.SanTid = exec
	if !m.xmit(c, &pkt) {
		if cmd.Tag != 0 {
			c.completeAtomic(cmd.Tag, 0, false, exec)
		} else {
			// Settle the fence; the CellFault records the loss.
			c.Flags.Inc(mc.AtomicAckFlagID)
		}
	}
}

// decombine distributes one combined reply down the tree in join
// order: for fetch-add, member i observes base plus the sum of the
// deltas joined before it (the Ultracomputer de-combining rule, exact
// under wrapping addition); min/max and non-fetching members need
// only their fence acks.
func (m *Machine) decombine(node *tnet.AtomNode, op mc.AtomicOp, base int64, ok bool, exec int) {
	prefix := base
	var walk func(n *tnet.AtomNode)
	walk = func(n *tnet.AtomNode) {
		if n.Kids == nil {
			cell := m.cells[n.Cell]
			if n.Tag != 0 {
				cell.completeAtomic(n.Tag, prefix, ok, exec)
			} else {
				m.sanFlagInc(exec, int(n.Cell), mc.AtomicAckFlagID)
				cell.Flags.Inc(mc.AtomicAckFlagID)
			}
			if op == mc.AtomicFetchAdd || op == mc.AtomicAdd {
				prefix += n.Delta
			}
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(node)
}

// execAtomic is the owner-side RMW: translate the word address, read-
// modify-write under the cell's atomic mutex (requests from several
// senders' controllers deliver concurrently), and report the old word
// or a fault. Atomics are synchronization operations like the flag
// incrementer, so no sanitizer access is recorded for the RMW itself.
func (c *Cell) execAtomic(cmd *msc.Command) (old int64, faulted bool) {
	if _, err := c.MMU.Translate(cmd.RAddr, 8); err != nil {
		c.OS.interrupt(IntrPageFault)
		c.OS.fault(fmt.Errorf("machine: cell %d: atomic %s: %w", c.id, cmd.AOp, err))
		return 0, true
	}
	c.atomMu.Lock()
	word, err := c.Mem.LoadWord8(cmd.RAddr)
	if err == nil {
		stored, _ := mc.ApplyAtomic(cmd.AOp, int64(word), cmd.AVal, cmd.ACmp)
		err = c.Mem.StoreWord8(cmd.RAddr, uint64(stored))
	}
	c.atomMu.Unlock()
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
	m.xmit(c, &tnet.Packet{Head: reply, SanTid: p.SanTid})
}
