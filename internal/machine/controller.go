package machine

import (
	"fmt"

	"ap1000plus/internal/bnet"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/tnet"
	"ap1000plus/internal/topology"
)

// drainBatch is how many commands a delivery worker pops from a cell
// per queue transaction: large enough to amortize the priority scan
// over a committed CommandList, small enough that an arriving reply
// never waits behind more than one batch.
const drainBatch = 16

// process executes one command popped from c's queues — the MSC+ send
// controller, "independent of processor execution" (S3.2) because it
// runs on the cell's delivery worker, not its CPU goroutine. When the
// machine is sanitized, the controller thread first acquires the
// clock the issuer released into the command and runs under its live
// clock; each packet it transmits carries that clock frozen into a
// token of its own (xmit).
func (m *Machine) process(c *Cell, cmd *msc.Command) {
	if c.folded {
		// One held request per cell: its fold leaves before the cell's
		// next command does.
		m.pool.workers[c.shard].emit()
	}
	// Only the worker that owns this cell emits slices on its MSC
	// track, so the X slices nest cleanly.
	var tl *obs.Timeline
	var start float64
	if o := m.obs; o != nil {
		if tl = o.Timeline(); tl != nil {
			start = o.NowUs()
			defer func() {
				tl.Slice(int(c.id), obs.TidMSC, "ctl", cmd.Op.String(), start, m.obs.NowUs()-start)
			}()
		}
	}
	exec := sanClock{tid: -1}
	if s := m.san; s != nil {
		exec.tid = s.Ctl(int(c.id))
		s.AcquireHandle(exec.tid, cmd.San)
		cmd.San = 0 // consumed: a packet built from cmd gets its own token
	}
	switch cmd.Op {
	case msc.OpPut, msc.OpSend, msc.OpRemoteStore, msc.OpGet, msc.OpRemoteLoad, msc.OpAtomic:
		if !c.Reaches(cmd.Dst) {
			m.dropUnreachable(c, cmd, exec)
			return
		}
	}
	switch cmd.Op {
	case msc.OpPut, msc.OpSend, msc.OpRemoteStore:
		m.sendData(c, cmd, exec)
	case msc.OpGet, msc.OpRemoteLoad:
		// Request messages carry no payload; route them out.
		var pkt tnet.Packet
		pkt.Head = *cmd
		pkt.SanTid = exec.tid
		m.xmit(c, &pkt)
	case msc.OpAtomic:
		m.routeAtomic(c, cmd, exec)
	case msc.OpGetReply:
		m.reply(c, cmd, exec)
	case msc.OpRemoteLoadReply:
		m.loadReply(c, cmd, exec)
	default:
		c.OS.fault(fmt.Errorf("machine: cell %d: unknown command %v", c.id, *cmd))
	}
}

// dropUnreachable drops a command whose destination c cannot address:
// an invalid cell, or one in another partition. The hardware checks
// illegal addresses (S3.2), so the command interrupts the OS and is
// dropped, and every waiter it would have woken is settled as for a
// transfer the reliable layer abandons: the program lives on.
func (m *Machine) dropUnreachable(c *Cell, cmd *msc.Command, exec sanClock) {
	c.OS.interrupt(IntrPageFault)
	c.OS.fault(fmt.Errorf("machine: cell %d: %v to unreachable cell %d (invalid or in another partition): %w", c.id, cmd.Op, cmd.Dst, ErrBadAddress))
	switch cmd.Op {
	case msc.OpRemoteLoad:
		c.completeLoad(cmd.Tag, nil)
	case msc.OpRemoteStore:
		m.sanFlagInc(exec, int(c.id), mc.RemoteAckFlagID)
		c.Flags.Inc(mc.RemoteAckFlagID)
	case msc.OpAtomic:
		if cmd.Tag != 0 {
			c.completeAtomic(cmd.Tag, 0, false, exec)
		} else {
			c.Flags.Inc(mc.AtomicAckFlagID)
		}
	}
}

// sanClock names the sanitizer clock a controller action runs under:
// logical thread tid (-1 when the machine is unsanitized) and, for a
// packet's delivery, the token tok the packet carries — the sending
// controller's clock frozen at transmit — in place of tid's live clock.
// The receive DMA may run on the destination's worker long after the
// sender moved on; the sender's live clock would cover everything it
// acquired since. A token never advances, so a delivery makes its DMA
// accesses before its releases; replies and acks forward it.
type sanClock struct {
	tid int
	tok int64
}

// sanAccess stamps one DMA access with the executing controller's
// clock. No-op when unsanitized.
func (m *Machine) sanAccess(exec sanClock, write bool, memCell int, addr mem.Addr, pat mem.Stride, op string) {
	if s := m.san; s != nil && exec.tid >= 0 {
		s.Access(exec.tid, exec.tok, exec.tid/2, write, memCell, uint64(addr), pat.ItemSize, pat.Count, pat.Skip, op)
	}
}

// sanFlagInc releases exec's clock into (cell, flag) ahead of the
// actual increment.
func (m *Machine) sanFlagInc(exec sanClock, cell int, flag mc.FlagID) {
	if s := m.san; s != nil && exec.tid >= 0 {
		s.FlagInc(exec.tid, exec.tok, cell, int32(flag))
	}
}

// sendReadLabel names the send-DMA source read of a data-bearing
// command for sanitizer reports. The labels are constants: sendData
// evaluates this with the sanitizer off too, so it must not allocate.
func sendReadLabel(op msc.Op) string {
	switch op {
	case msc.OpPut:
		return "PUT source read (send DMA)"
	case msc.OpSend:
		return "SEND source read (send DMA)"
	case msc.OpRemoteStore:
		return "remote store source read (send DMA)"
	}
	return "source read (send DMA)"
}

// sendData runs the send DMA for a data-bearing command: translate
// the local address, capture the payload, raise the send flag, and
// inject the packet.
func (m *Machine) sendData(c *Cell, cmd *msc.Command, exec sanClock) {
	var payload *mem.Payload
	if cmd.LAddr != 0 && cmd.LStride.Total() > 0 {
		if _, err := c.MMU.Translate(cmd.LAddr, cmd.LStride.Extent()); err != nil {
			// "A program may specify an illegal address ... the
			// hardware must check for illegal addresses" (S3.2): the
			// faulting command interrupts the OS and is dropped.
			c.OS.interrupt(IntrPageFault)
			c.OS.fault(fmt.Errorf("machine: cell %d: send DMA: %w", c.id, err))
			return
		}
		m.sanAccess(exec, false, int(c.id), cmd.LAddr, cmd.LStride, sendReadLabel(cmd.Op))
		p, err := mem.CapturePayload(c.Mem, cmd.LAddr, cmd.LStride)
		if err != nil {
			c.OS.fault(fmt.Errorf("machine: cell %d: send DMA: %w", c.id, err))
			return
		}
		payload = p
		if s := m.san; s != nil && cmd.Op == msc.OpSend {
			// SEND payloads park in the destination's ring buffer and
			// hop to its CPU asynchronously; carry the clock along.
			payload.SetSan(s.Release(exec.tid))
		}
	}
	// Send DMA complete: the MSC+ asks the MC to increment the send
	// flag (S4.1, "flag update combined with data transfer").
	m.sanFlagInc(exec, int(c.id), cmd.SendFlag)
	c.Flags.Inc(cmd.SendFlag)
	// Field by field: a composite literal around *cmd builds a
	// temporary and copies the 160-byte header twice.
	var pkt tnet.Packet
	pkt.Head = *cmd
	pkt.Payload = payload
	pkt.SanTid = exec.tid
	// PUT and remote store payloads are copied out during delivery, so
	// the wire recycles their buffers once the handler returns,
	// wherever that happens; SEND payloads park in the destination's
	// ring buffer and must stay alive. Under a fault plan a copy may
	// still sit in the reorder limbo, so the buffer is left to the GC.
	pkt.FreeOnDeliver = m.rel == nil && cmd.Op != msc.OpSend
	m.xmit(c, &pkt)
}

// reply serves a queued GET request: capture the requested range from
// local memory and send it back to the requester. The data-sending
// side's flag (cmd.SendFlag, a flag on THIS cell chosen by the
// requester) rises when the reply DMA completes.
func (m *Machine) reply(c *Cell, cmd *msc.Command, exec sanClock) {
	var payload *mem.Payload
	if cmd.RAddr != 0 {
		if _, err := c.MMU.Translate(cmd.RAddr, cmd.RStride.Extent()); err != nil {
			c.OS.interrupt(IntrPageFault)
			c.OS.fault(fmt.Errorf("machine: cell %d: GET reply: %w", c.id, err))
			return
		}
		m.sanAccess(exec, false, int(c.id), cmd.RAddr, cmd.RStride, "GET reply read (send DMA)")
		p, err := mem.CapturePayload(c.Mem, cmd.RAddr, cmd.RStride)
		if err != nil {
			c.OS.fault(fmt.Errorf("machine: cell %d: GET reply: %w", c.id, err))
			return
		}
		payload = p
	}
	m.sanFlagInc(exec, int(c.id), cmd.SendFlag)
	c.Flags.Inc(cmd.SendFlag)
	var pkt tnet.Packet
	pkt.Head = *cmd
	pkt.Head.Src = c.id
	pkt.Head.Dst = cmd.Src // back to the requester
	pkt.Payload = payload
	pkt.SanTid = exec.tid
	// The reply is copied into the requester's memory during delivery;
	// the wire recycles the buffer afterwards (unless a fault plan may
	// still be holding a copy in limbo).
	pkt.FreeOnDeliver = m.rel == nil
	m.xmit(c, &pkt)
}

// loadReply serves a queued remote load.
func (m *Machine) loadReply(c *Cell, cmd *msc.Command, exec sanClock) {
	var payload *mem.Payload
	if _, err := c.MMU.Translate(cmd.RAddr, cmd.RStride.Extent()); err != nil {
		c.OS.interrupt(IntrPageFault)
		c.OS.fault(fmt.Errorf("machine: cell %d: remote load: %w", c.id, err))
		// Reply with no payload so the loader unblocks with an error.
	} else {
		if cmd.CacheFill {
			// Directory registration happens BEFORE the reply is
			// captured: a store landing after this point invalidates the
			// copy the requester is about to receive, so the requester
			// never holds an untracked page.
			if h := c.dsmHooks.Load(); h != nil && h.Shared != nil {
				h.Shared(cmd.Src, cmd.RAddr, cmd.RStride.Total(), cmd.Port)
			}
		}
		if p, err := mem.CapturePayload(c.Mem, cmd.RAddr, cmd.RStride); err != nil {
			c.OS.fault(fmt.Errorf("machine: cell %d: remote load: %w", c.id, err))
		} else {
			m.sanAccess(exec, false, int(c.id), cmd.RAddr, cmd.RStride, "remote load read")
			payload = p
			if s := m.san; s != nil {
				// The reply payload crosses to the loading CPU through a
				// channel; carry the clock with it.
				payload.SetSan(s.Release(exec.tid))
			}
		}
	}
	var pkt tnet.Packet
	pkt.Head = *cmd
	pkt.Head.Src = c.id
	pkt.Head.Dst = cmd.Src
	pkt.Payload = payload
	pkt.SanTid = exec.tid
	m.xmit(c, &pkt)
}

// receive is the cell's T-net receive controller (the MSC+ of the
// receiving cell): it "analyzes the header of the message and
// activates the receive DMA to write the data directly" (S4.1).
// It runs on this cell's own worker: a same-shard sender is that
// worker, a cross-shard packet crossed a link to it (only the
// Inline DSM notices run elsewhere, and they touch no queue and no
// sanitizer clock). Sanitizer-wise the delivery runs as the sending
// controller's thread (SanTid) under the clock its token froze at
// transmit (Head.San); the token is dropped here unless a reply or
// ack took it along. It reports whether the packet was accepted;
// under a fault plan, false makes an inline sender retransmit (a
// sender behind a link has the injector's fate instead).
func (c *Cell) receive(p tnet.Packet) bool {
	m := c.machine
	if r := m.rel; r != nil {
		// Reliable-delivery gate: a damaged packet is rejected before
		// it can touch memory or the dedup window; a duplicate is
		// acknowledged without re-running the DMA, the flag increment
		// or the sanitizer hooks — the effects fire exactly once.
		switch r.admit(c, &p) {
		case admitReject:
			return false
		case admitDup:
			if p.Head.Op == msc.OpAtomic {
				// Exactly-once atomics: a duplicated request must not
				// re-execute the RMW, but the requester may still need the
				// result — serve it from the link's replay cache.
				c.replayAtomic(&p)
			}
			return true
		}
	}
	ok := c.apply(&p)
	if s := m.san; s != nil {
		s.Drop(p.Head.San)
	}
	return ok
}

// apply executes an admitted packet. A case that forwards the packet's
// sanitizer token into a reply or ack clears p.Head.San.
func (c *Cell) apply(p *tnet.Packet) bool {
	m := c.machine
	cmd := &p.Head
	exec := sanClock{p.SanTid, cmd.San}
	switch cmd.Op {
	case msc.OpPut:
		if !c.deliver(cmd, p.Payload, exec, "PUT receive DMA write") {
			return false
		}
		m.sanFlagInc(exec, int(c.id), cmd.RecvFlag)
		c.Flags.Inc(cmd.RecvFlag)
		return true

	case msc.OpSend:
		c.sinkMu.RLock()
		sink := c.sink
		c.sinkMu.RUnlock()
		if sink == nil {
			c.OS.fault(fmt.Errorf("machine: cell %d: SEND arrived with no ring buffer", c.id))
			return true
		}
		sink(cmd.Port, cmd.Src, p.Payload)
		return true

	case msc.OpGet:
		// The MSC+ "analyzes the GET request message and enters it
		// into the reply queue" — no processor involvement. The queued
		// entry is the reply to produce; it carries the token on to
		// this cell's controller, which acquires it when it pops.
		req := *cmd
		req.Op = msc.OpGetReply
		c.push(qGetReply, req)
		cmd.San = 0
		return true

	case msc.OpGetReply:
		if !c.deliver(cmd, p.Payload, exec, "GET receive DMA write") {
			return false
		}
		m.sanFlagInc(exec, int(c.id), cmd.RecvFlag)
		c.Flags.Inc(cmd.RecvFlag)
		return true

	case msc.OpRemoteStore:
		if !c.deliver(cmd, p.Payload, exec, "remote store receive DMA write") {
			return false
		}
		// Directory coherence: invalidate every registered sharer of
		// the written pages BEFORE acknowledging the store, so the
		// writer's fence implies all invalidations have been applied.
		// The dedup gate above makes this fire exactly once per store
		// even when the fault plan duplicates the packet.
		if h := c.dsmHooks.Load(); h != nil && h.Stored != nil {
			h.Stored(cmd.Src, cmd.RAddr, cmd.RStride.Total())
		}
		// Acknowledge automatically (S4.2).
		ack := msc.Command{Op: msc.OpRemoteStoreAck, Src: c.id, Dst: cmd.Src, San: cmd.San}
		cmd.San = 0
		m.xmit(c, &tnet.Packet{Head: ack, SanTid: exec.tid})
		return true

	case msc.OpRemoteStoreAck:
		m.sanFlagInc(exec, int(c.id), mc.RemoteAckFlagID)
		c.Flags.Inc(mc.RemoteAckFlagID)
		return true

	case msc.OpRemoteLoad:
		req := *cmd
		req.Op = msc.OpRemoteLoadReply
		c.push(qRloadReply, req)
		cmd.San = 0
		return true

	case msc.OpRemoteLoadReply:
		c.completeLoad(cmd.Tag, p.Payload)
		return true

	case msc.OpDSMInval:
		if h := c.dsmHooks.Load(); h != nil && h.Inval != nil {
			h.Inval(cmd.Src, cmd.RAddr, topology.CellID(cmd.Tag))
		}
		if o := m.obs; o != nil {
			o.Cell(int(c.id)).DSMInvalsRecv.Add(1)
			if tl := o.Timeline(); tl != nil {
				tl.Instant(int(c.id), obs.TidMSC, "dsm", "inval-recv", o.NowUs())
			}
		}
		return true

	case msc.OpDSMEvict:
		// A sharer silently dropped its cached copy: deregister it so
		// later stores stop sending it spurious invalidations. Tag
		// carries the fill epoch of the evicted copy; the hook ignores
		// notices older than the sharer's current registration.
		if h := c.dsmHooks.Load(); h != nil && h.Evicted != nil {
			h.Evicted(cmd.Src, cmd.RAddr, cmd.Tag)
		}
		if o := m.obs; o != nil {
			if tl := o.Timeline(); tl != nil {
				tl.Instant(int(c.id), obs.TidMSC, "dsm", "evict-recv", o.NowUs())
			}
		}
		return true

	case msc.OpAtomic:
		// The owner's MC executes the RMW under the dedup gate, so it
		// fires exactly once per request, and answers inline like a
		// remote-store ack — no processor involvement.
		old, faulted := c.execAtomic(cmd)
		if r := m.rel; r != nil && !faulted {
			r.noteResult(cmd.Src, cmd.Dst, p.Head.Seq, old)
		}
		reply := msc.Command{
			Op: msc.OpAtomicReply, Src: c.id, Dst: cmd.Src,
			RAddr: cmd.RAddr, AOp: cmd.AOp, AVal: old, Tag: cmd.Tag, San: cmd.San,
		}
		cmd.San = 0
		if faulted {
			reply.ACmp = 1
		}
		m.xmit(c, &tnet.Packet{Head: reply, SanTid: exec.tid})
		return true

	case msc.OpAtomicReply:
		if cmd.Tag == 0 {
			// Acknowledgement of a non-fetching update: raise the
			// implicit fence flag, like a remote-store ack.
			m.sanFlagInc(exec, int(c.id), mc.AtomicAckFlagID)
			c.Flags.Inc(mc.AtomicAckFlagID)
		} else {
			c.completeAtomic(cmd.Tag, cmd.AVal, cmd.ACmp == 0, exec)
		}
		return true

	default:
		c.OS.fault(fmt.Errorf("machine: cell %d: unknown packet %v", c.id, *cmd))
		return true
	}
}

// deliver runs the receive DMA: translate the destination address
// (LAddr for a GET reply, RAddr for everything else) and write the
// payload. A destination address of 0 (the GET-acknowledge
// convention) skips the copy; addresses in the communication-register
// window land in the MC's register file with p-bit semantics (S4.4:
// the registers live in shared memory space, so remote stores reach
// them). It reports whether the DMA completed.
func (c *Cell) deliver(cmd *msc.Command, payload *mem.Payload, exec sanClock, op string) bool {
	// Choose the destination side: PUT writes at RAddr on this cell;
	// GET replies write at LAddr on this (requesting) cell.
	addr := cmd.RAddr
	pat := cmd.RStride
	if cmd.Op == msc.OpGetReply {
		addr = cmd.LAddr
		pat = cmd.LStride
	}
	if addr == 0 || payload == nil {
		return true // pure flag/ack message
	}
	if addr >= CregSpaceBase {
		return c.deliverCreg(addr, payload, exec)
	}
	if _, err := c.MMU.Translate(addr, pat.Extent()); err != nil {
		// "If a page fault happens in a remote cell during message
		// transfer, the MSC+ interrupts the operating system and
		// pulls the remaining message from the network" (S4.1).
		c.OS.interrupt(IntrPageFault)
		c.OS.fault(fmt.Errorf("machine: cell %d: receive DMA: %w", c.id, err))
		return false
	}
	c.machine.sanAccess(exec, true, int(c.id), addr, pat, op)
	if err := payload.Deliver(c.Mem, addr, pat); err != nil {
		c.OS.fault(fmt.Errorf("machine: cell %d: receive DMA: %w", c.id, err))
		return false
	}
	// The receive hardware invalidates the cache lines the DMA wrote.
	c.invalLines.Add((payload.Size() + CacheLineBytes - 1) / CacheLineBytes)
	if o := c.machine.obs; o != nil {
		cc := o.Cell(int(c.id))
		cc.RecvDMAs.Add(1)
		cc.DeliveredBytes.Add(payload.Size())
		if tl := o.Timeline(); tl != nil {
			// Receive DMAs may run on the sending cells' workers, so
			// several may overlap on this cell's track: instants, not
			// slices.
			tl.Instant(int(c.id), obs.TidMSC, "dma", "recv-dma", o.NowUs())
		}
	}
	return true
}

// receiveBroadcast is the cell's B-net interface: broadcasts land in
// an inbox the CPU drains with RecvBroadcast.
func (c *Cell) receiveBroadcast(msg bnet.Message) {
	c.bcastMu.Lock()
	c.bcasts = append(c.bcasts, bcastMsg{src: msg.Src, tag: msg.Tag, payload: msg.Payload})
	c.bcastMu.Unlock()
	c.bcastCond.Broadcast()
}
