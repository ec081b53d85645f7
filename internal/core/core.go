// Package core is the paper's primary contribution as a library: the
// user-level PUT/GET interface of S2.2 and S3.1.
//
//	put(node_id, raddr, laddr, size, send_flag, recv_flag, ack)
//	get(node_id, raddr, laddr, size, send_flag, recv_flag)
//	put_stride(...), get_stride(...)
//	readRemote(node_id, raddr, laddr, size)
//	writeRemote(node_id, raddr, laddr, size)
//
// PUT copies a local memory block to remote memory and increments
// flags on both sides when the respective DMA completes; GET fetches
// a remote block. Both are non-blocking and split-phase, so
// communication and computation overlap; synchronization is the
// program checking flag values — exactly the behaviour the
// parallelizing compiler needs.
//
// Completion of writes is detected with the Ack & Barrier model
// (S2.2): every acknowledged PUT bumps the cell's implicit
// acknowledge flag via a zero-address GET that rides the same
// in-order channel (S4.1); AckWait blocks until all outstanding
// acknowledgements arrived, after which the program may enter a
// barrier.
package core

import (
	"fmt"

	"ap1000plus/internal/machine"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// MaxTransfer is the largest single DMA the send controller accepts:
// "from 1 word (4 byte) to 1 megaword (4 megabytes)" (S4.1).
const MaxTransfer = 4 << 20

// Typed sentinel errors, re-exported from machine so users of the
// PUT/GET interface branch with errors.Is without importing the
// machine package.
var (
	// ErrBadAddress marks an invalid destination cell, or one in
	// another partition.
	ErrBadAddress = machine.ErrBadAddress
	// ErrBadStride marks an invalid transfer shape: malformed stride,
	// mismatched payload totals, or a transfer over MaxTransfer.
	ErrBadStride = machine.ErrBadStride
	// ErrQueueFull marks a CommandList that outgrew MaxBatch.
	ErrQueueFull = machine.ErrQueueFull
	// ErrRetryBudget marks a transfer abandoned under a fault plan's
	// retry budget (machine.CellFault wraps it).
	ErrRetryBudget = machine.ErrRetryBudget
)

// Transfer describes one PUT or GET in options-struct form — the
// paper's positional put(node_id, raddr, laddr, size, send_flag,
// recv_flag, ack) with the parameters named, so call sites read like
// the figure instead of a run of bare integers.
type Transfer struct {
	// To is the destination cell (the data holder for a GET).
	To topology.CellID
	// Remote is the address on To (PUT destination, GET source).
	Remote mem.Addr
	// Local is the address on the issuing cell (PUT source, GET
	// destination).
	Local mem.Addr
	// Size is the contiguous transfer length in bytes. Ignored by the
	// stride forms, which take explicit patterns.
	Size int64
	// SendFlag is incremented on the data-sending cell when its send
	// DMA completes; RecvFlag on the data-receiving cell when its
	// receive DMA completes.
	SendFlag mc.FlagID
	RecvFlag mc.FlagID
	// Ack requests the S4.1 acknowledgement round trip for a PUT (the
	// implicit acknowledge flag rises when the destination consumed
	// the data). Ignored by GET, whose reply is its own completion.
	Ack bool
}

// Comm is one cell's PUT/GET endpoint.
type Comm struct {
	cell *machine.Cell
	// rts marks traced operations as issued by the run-time system
	// (the VPP Fortran runtime constructs its Comm with NewRTS).
	rts bool
	// acks counts acknowledgements requested so far; AckWait's target.
	acks int64
	// rrFlag serializes blocking ReadRemote calls.
	rrFlag  mc.FlagID
	rrCount int64
	// batch is the cell's reusable CommandList (Batch); its buffers
	// persist across commits so steady-state batched issue does not
	// allocate.
	batch CommandList
}

// New builds the PUT/GET interface for a cell.
func New(cell *machine.Cell) *Comm {
	return &Comm{cell: cell, rrFlag: cell.Flags.Alloc()}
}

// NewRTS builds a Comm whose traced operations carry the run-time
// system attribution (MLSim charges rts_op_time for them).
func NewRTS(cell *machine.Cell) *Comm {
	c := New(cell)
	c.rts = true
	return c
}

// Cell returns the underlying cell.
func (c *Comm) Cell() *machine.Cell { return c.cell }

// validateDst rejects, at issue time, a destination the cell's MSC+
// cannot address: an invalid cell or one in another partition.
func (c *Comm) validateDst(dst topology.CellID) error {
	if !c.cell.Reaches(dst) {
		return fmt.Errorf("core: invalid destination cell %d for cell %d's partition: %w", dst, c.cell.ID(), ErrBadAddress)
	}
	return nil
}

func (c *Comm) validate(dst topology.CellID, pat mem.Stride) error {
	if err := c.validateDst(dst); err != nil {
		return err
	}
	if err := pat.Validate(); err != nil {
		return fmt.Errorf("core: %w: %v", ErrBadStride, err)
	}
	if pat.Total() > MaxTransfer {
		return fmt.Errorf("core: transfer of %d bytes exceeds the %d-byte DMA limit: %w", pat.Total(), MaxTransfer, ErrBadStride)
	}
	return nil
}

// Put copies t.Size bytes from t.Local in local memory to t.Remote on
// t.To. It returns as soon as the command is queued (a few stores
// into the MSC+); the flags in t signal DMA completion on each side.
func (c *Comm) Put(t Transfer) error {
	return c.PutStride(t.To, t.Remote, t.Local, t.SendFlag, t.RecvFlag, t.Ack, mem.Contiguous(t.Size), mem.Contiguous(t.Size))
}

// PutStride is Put with independent one-dimensional stride patterns
// on the sending and receiving side (Figure 3). The payload totals of
// the two patterns must match.
func (c *Comm) PutStride(dst topology.CellID, raddr, laddr mem.Addr, sendFlag, recvFlag mc.FlagID, ack bool, sendPat, recvPat mem.Stride) error {
	if err := c.validate(dst, sendPat); err != nil {
		return err
	}
	if err := recvPat.Validate(); err != nil {
		return err
	}
	if sendPat.Total() != recvPat.Total() {
		return fmt.Errorf("core: put payload mismatch: send %d bytes, recv %d: %w", sendPat.Total(), recvPat.Total(), ErrBadStride)
	}
	if rec := c.cell.Recorder(); rec != nil {
		items := sendPat.Count
		if recvPat.Count > sendPat.Count {
			items = recvPat.Count
		}
		rec.Put(dst, sendPat.Total(), items, trace.FlagID(sendFlag), trace.FlagID(recvFlag), ack, c.rts)
	}
	c.cell.PushUser(msc.Command{
		Op: msc.OpPut, Dst: dst,
		RAddr: raddr, LAddr: laddr,
		RStride: recvPat, LStride: sendPat,
		SendFlag: sendFlag, RecvFlag: recvFlag,
	})
	if ack {
		c.pushAckGet(dst)
	}
	return nil
}

// ackCommand builds the S4.1 acknowledge: a GET to address 0 behind
// the PUT(s) on the same in-order channel. The reply bumps the
// implicit acknowledge flag.
func ackCommand(dst topology.CellID) msc.Command {
	return msc.Command{
		Op: msc.OpGet, Dst: dst,
		RAddr: 0, LAddr: 0,
		RStride: mem.Contiguous(1), LStride: mem.Contiguous(1),
		RecvFlag: mc.AckFlagID,
	}
}

func (c *Comm) pushAckGet(dst topology.CellID) {
	c.acks++
	c.cell.PushUser(ackCommand(dst))
}

// Get retrieves t.Size bytes from t.Remote on t.To into t.Local
// locally. t.SendFlag names a flag on the remote cell (incremented
// when its reply DMA completes); t.RecvFlag is incremented locally
// when the data arrived. t.Ack is ignored: the reply is a GET's own
// completion signal.
func (c *Comm) Get(t Transfer) error {
	return c.GetStride(t.To, t.Remote, t.Local, t.SendFlag, t.RecvFlag, mem.Contiguous(t.Size), mem.Contiguous(t.Size))
}

// GetStride is Get with stride patterns: sendPat describes the layout
// at the remote (data-sending) side, recvPat the local layout.
func (c *Comm) GetStride(dst topology.CellID, raddr, laddr mem.Addr, sendFlag, recvFlag mc.FlagID, sendPat, recvPat mem.Stride) error {
	if err := c.validate(dst, sendPat); err != nil {
		return err
	}
	if err := recvPat.Validate(); err != nil {
		return err
	}
	if sendPat.Total() != recvPat.Total() {
		return fmt.Errorf("core: get payload mismatch: send %d bytes, recv %d: %w", sendPat.Total(), recvPat.Total(), ErrBadStride)
	}
	if rec := c.cell.Recorder(); rec != nil {
		items := sendPat.Count
		if recvPat.Count > sendPat.Count {
			items = recvPat.Count
		}
		rec.Get(dst, sendPat.Total(), items, trace.FlagID(sendFlag), trace.FlagID(recvFlag), c.rts)
	}
	c.cell.PushUser(msc.Command{
		Op: msc.OpGet, Dst: dst,
		RAddr: raddr, LAddr: laddr,
		RStride: sendPat, LStride: recvPat,
		SendFlag: sendFlag, RecvFlag: recvFlag,
	})
	return nil
}

// WaitFlag blocks until the local flag reaches target — the program's
// flag-check loop, with the wait time visible to MLSim as idle time.
func (c *Comm) WaitFlag(flag mc.FlagID, target int64) {
	if rec := c.cell.Recorder(); rec != nil {
		rec.FlagWait(trace.FlagID(flag), target)
	}
	c.cell.Flags.Wait(flag, target)
}

// AcksIssued reports how many acknowledged PUTs were issued.
func (c *Comm) AcksIssued() int64 { return c.acks }

// AckWait blocks until every acknowledgement requested so far has
// arrived — the "Ack" half of the Ack & Barrier model.
func (c *Comm) AckWait() {
	if c.acks == 0 {
		return
	}
	c.WaitFlag(mc.AckFlagID, c.acks)
}

// WriteRemote is the translator's non-blocking direct remote write
// (S2.2): a PUT with an acknowledgement and no user flags. Completion
// of all writes is observed with AckWait before a barrier.
func (c *Comm) WriteRemote(dst topology.CellID, raddr, laddr mem.Addr, size int64) error {
	return c.Put(Transfer{To: dst, Remote: raddr, Local: laddr, Size: size, Ack: true})
}

// ReadRemote is the translator's blocking direct remote read (S2.2):
// a GET that waits for the reply data before returning. "To detect
// the completion of readRemote is easy, because reply data returns
// and update the flag."
func (c *Comm) ReadRemote(dst topology.CellID, raddr, laddr mem.Addr, size int64) error {
	if err := c.Get(Transfer{To: dst, Remote: raddr, Local: laddr, Size: size, RecvFlag: c.rrFlag}); err != nil {
		return err
	}
	c.rrCount++
	c.WaitFlag(c.rrFlag, c.rrCount)
	return nil
}

// Barrier arrives at the all-cells hardware barrier (S-net) and
// records the synchronization in the trace.
func (c *Comm) Barrier() {
	if rec := c.cell.Recorder(); rec != nil {
		rec.Barrier(trace.AllGroup)
	}
	c.cell.HWBarrier()
}

// Compute charges dur microseconds of base-SPARC computation to the
// trace; it is how applications expose their work to MLSim.
func (c *Comm) Compute(dur float64) { c.cell.RecordCompute(dur) }
