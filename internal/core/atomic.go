package core

// Remote atomics on the PUT/GET interface: the MC's S4.1
// fetch-and-increment generalized into a word-atomic suite. Fetching
// forms (FetchAdd, CompareAndSwap, Swap) block like ReadRemote;
// non-fetching updates (AtomicAdd, AtomicMin, AtomicMax) are
// fire-and-forget like a remote store, fenced with FenceAtomics.
// Under Config.Combining, same-address combinable operations that
// meet in the delivery workers fold into one request on their way to
// the owner — the results are identical, only the message count drops.

import (
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// FetchAdd atomically adds delta to the 8-byte word at raddr on dst
// and returns the word's previous value. Blocking.
func (c *Comm) FetchAdd(dst topology.CellID, raddr mem.Addr, delta int64) (int64, error) {
	if err := c.validateDst(dst); err != nil {
		return 0, err
	}
	return c.cell.FetchAdd(dst, raddr, delta)
}

// CompareAndSwap atomically stores newVal into the word at raddr on
// dst iff it equals oldVal, returning the previous value either way.
// Blocking.
func (c *Comm) CompareAndSwap(dst topology.CellID, raddr mem.Addr, oldVal, newVal int64) (int64, error) {
	if err := c.validateDst(dst); err != nil {
		return 0, err
	}
	return c.cell.CompareAndSwap(dst, raddr, oldVal, newVal)
}

// Swap atomically stores v into the word at raddr on dst and returns
// the previous value. Blocking.
func (c *Comm) Swap(dst topology.CellID, raddr mem.Addr, v int64) (int64, error) {
	if err := c.validateDst(dst); err != nil {
		return 0, err
	}
	return c.cell.Swap(dst, raddr, v)
}

// AtomicAdd atomically adds delta to the word at raddr on dst,
// non-blocking; FenceAtomics awaits the acknowledgement.
func (c *Comm) AtomicAdd(dst topology.CellID, raddr mem.Addr, delta int64) error {
	if err := c.validateDst(dst); err != nil {
		return err
	}
	c.cell.AtomicAdd(dst, raddr, delta)
	return nil
}

// AtomicMin atomically lowers the word at raddr on dst to v if v is
// smaller (signed), non-blocking.
func (c *Comm) AtomicMin(dst topology.CellID, raddr mem.Addr, v int64) error {
	if err := c.validateDst(dst); err != nil {
		return err
	}
	c.cell.AtomicMin(dst, raddr, v)
	return nil
}

// AtomicMax atomically raises the word at raddr on dst to v if v is
// larger (signed), non-blocking.
func (c *Comm) AtomicMax(dst topology.CellID, raddr mem.Addr, v int64) error {
	if err := c.validateDst(dst); err != nil {
		return err
	}
	c.cell.AtomicMax(dst, raddr, v)
	return nil
}

// FenceAtomics blocks until every non-fetching atomic issued by this
// cell — singly or via a CommandList — has been acknowledged.
func (c *Comm) FenceAtomics() { c.cell.FenceAtomics() }

// AtomicAdd stages a non-fetching atomic add in the batch. Staged
// atomics ride the same in-order (src, dst) stream as the batch's
// PUTs and act as merge barriers, so coalescing never reorders a
// transfer past an atomic to the same destination. Fetching atomics
// cannot be staged: they block for a result, which a single-doorbell
// batch cannot deliver.
func (b *CommandList) AtomicAdd(dst topology.CellID, raddr mem.Addr, delta int64) *CommandList {
	return b.stageAtomic(mc.AtomicAdd, dst, raddr, delta)
}

// AtomicMin stages a non-fetching atomic min in the batch.
func (b *CommandList) AtomicMin(dst topology.CellID, raddr mem.Addr, v int64) *CommandList {
	return b.stageAtomic(mc.AtomicMin, dst, raddr, v)
}

// AtomicMax stages a non-fetching atomic max in the batch.
func (b *CommandList) AtomicMax(dst topology.CellID, raddr mem.Addr, v int64) *CommandList {
	return b.stageAtomic(mc.AtomicMax, dst, raddr, v)
}

func (b *CommandList) stageAtomic(op mc.AtomicOp, dst topology.CellID, raddr mem.Addr, operand int64) *CommandList {
	if !b.ready() {
		return b
	}
	if err := b.comm.validateDst(dst); err != nil {
		b.err = err
		return b
	}
	b.stage(msc.Command{
		Op: msc.OpAtomic, Dst: dst,
		RAddr: raddr, AOp: op, AVal: operand,
	}, false)
	return b
}
