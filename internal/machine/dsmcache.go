package machine

import (
	"fmt"

	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/tnet"
	"ap1000plus/internal/topology"
)

// DSMHooks connects a cell's MSC+ to the DSM write-through page cache
// (internal/dsm). The machine stays ignorant of cache policy: it only
// reports the three events the directory protocol is built from. All
// hooks run in delivery context — on a delivery worker, or for Inval
// and Evicted on whichever goroutine sent the packet — so they must
// not block: take short locks, send packets, return.
type DSMHooks struct {
	// Shared fires on the owning cell when a remote load with the
	// cache-fill bit is served: sharer is about to hold a cached copy
	// of [addr, addr+size) of this cell's memory. Called after address
	// translation and BEFORE the reply payload is captured, so a store
	// that lands after registration is guaranteed to invalidate the
	// copy the sharer receives. epoch is the sharer's fill generation
	// for the page, echoed back in eviction notices so the owner can
	// tell a stale notice from one that outranks the registration.
	Shared func(sharer topology.CellID, addr mem.Addr, size int64, epoch int32)
	// Stored fires on the owning cell when a remote store into
	// [addr, addr+size) of its memory has been delivered, BEFORE the
	// store is acknowledged: the directory owner invalidates every
	// registered sharer of the written pages, so a writer's fence
	// implies all invalidations have been applied.
	Stored func(writer topology.CellID, addr mem.Addr, size int64)
	// Inval fires on a sharing cell when an invalidation for the page
	// at owner-local address page in owner's memory arrives; writer is
	// the cell whose store triggered it.
	Inval func(owner topology.CellID, page mem.Addr, writer topology.CellID)
	// Evicted fires on the owning cell when a sharer reports it has
	// silently dropped its cached copy of the page at owner-local
	// address page (capacity eviction). epoch is the fill generation
	// the sharer registered that copy under: the owner must keep the
	// registration if it has since re-registered the sharer at a newer
	// epoch (the notice raced a re-fill).
	Evicted func(sharer topology.CellID, page mem.Addr, epoch int64)
}

// SetDSMHooks installs the DSM cache's directory hooks. Installing
// twice panics: the cell has one MSC+ directory.
func (c *Cell) SetDSMHooks(h *DSMHooks) {
	if h != nil && !c.dsmHooks.CompareAndSwap(nil, h) {
		panic(fmt.Sprintf("machine: cell %d DSM hooks already installed", c.id))
	}
}

// SendDSMInval sends a page-invalidation message to dst over the
// reliable T-net path: page is the invalidated page's address in THIS
// (owning) cell's memory, writer the cell whose store triggered the
// invalidation. Called by the DSM directory from delivery context
// (the Stored hook) or from the owning CPU (a local store to an owned
// shared page); neither holds locks across the send. The packet is
// delivered inline: the invalidation has been applied when this
// returns, which is what lets a store's acknowledgement (and so the
// writer's fence) imply it, and the CPU never becomes a second
// producer on its shard's links. Overtaking a cache fill still on the
// link is safe — the sharer discards a fill older than the page's
// last invalidation.
func (c *Cell) SendDSMInval(dst topology.CellID, page mem.Addr, writer topology.CellID) {
	cmd := msc.Command{
		Op: msc.OpDSMInval, Src: c.id, Dst: dst,
		RAddr: page, Tag: int64(writer),
	}
	if o := c.machine.obs; o != nil {
		o.Cell(int(c.id)).DSMInvalsSent.Add(1)
		if tl := o.Timeline(); tl != nil {
			tl.Instant(int(c.id), obs.TidMSC, "dsm", "inval-send", o.NowUs())
		}
	}
	c.machine.xmit(c, &tnet.Packet{Head: cmd, SanTid: -1, Inline: true})
}

// SendDSMEvict notifies the page owner dst that this cell has evicted
// its cached copy of the page at owner-local address page, registered
// under fill generation epoch. The owner drops this cell from the
// page's sharer set (unless a newer registration outranks the notice),
// so later stores stop sending spurious invalidations. Called by the
// DSM cache from CPU context after the eviction is already effective
// locally, so it is delivered inline rather than pushed onto a link
// the CPU does not produce for; the epoch makes its order against
// fills irrelevant, and losing the notice under a fault plan only
// costs extra invalidations, never correctness.
func (c *Cell) SendDSMEvict(dst topology.CellID, page mem.Addr, epoch int32) {
	cmd := msc.Command{
		Op: msc.OpDSMEvict, Src: c.id, Dst: dst,
		RAddr: page, Tag: int64(epoch),
	}
	if o := c.machine.obs; o != nil {
		if tl := o.Timeline(); tl != nil {
			tl.Instant(int(c.id), obs.TidMSC, "dsm", "evict-send", o.NowUs())
		}
	}
	c.machine.xmit(c, &tnet.Packet{Head: cmd, SanTid: -1, Inline: true})
}

// SanReadAt records a CPU-context read of memCell's DRAM with the
// sanitizer — SanRead for a range that lives on another cell. The DSM
// cache calls it on every cache hit so a race between a remote write
// and a load served from the local cached copy is still a race on the
// owning cell's memory.
func (c *Cell) SanReadAt(memCell int, addr mem.Addr, pat mem.Stride, op string) {
	if s := c.machine.san; s != nil {
		id := int(c.id)
		s.Access(s.CPU(id), 0, id, false, memCell, uint64(addr), pat.ItemSize, pat.Count, pat.Skip, op)
	}
}
