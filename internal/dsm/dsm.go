// Package dsm implements the AP1000+'s distributed shared memory
// (S4.2). The SuperSPARC's 64-gigabyte physical space is split in
// half: the lower half is cell-local, the upper half is shared space
// divided into equal blocks, one per cell. A normal LOAD/STORE whose
// physical address falls in shared space is turned by the MSC+ into a
// remote access: "the MSC+ generates commands to translate the upper
// 10 bits of physical addresses ... to destination cell IDs and the
// other bits to local addresses at the destination cell."
//
// Remote loads block; remote stores are non-blocking and
// acknowledged automatically by the destination MSC+ — Fence waits
// for those acknowledgements.
//
// The package also provides the "write through page" mechanism: part
// of local memory acts as a cache for shared space, replacing remote
// loads of cached pages with local accesses; stores write through to
// the owning cell (S4.2 sketches this; the paper defers the
// coherence details, which this implementation fills in with a
// directory protocol).
//
// # Cache coherence
//
// Each cache fill rides a remote load with the cache-fill bit set,
// which makes the owning cell's MSC+ register the requester in a
// per-page sharer directory BEFORE capturing the reply — so a fill is
// either fresh or its page is guaranteed to receive an invalidation.
// When a write-through store is delivered at the owner, the directory
// invalidates every registered sharer of the written pages before the
// store is acknowledged; invalidations ride the reliable T-net path,
// so they survive fault plans and apply exactly once. A writer's
// Fence therefore implies that every copy its stores invalidated is
// gone, and a fenced store followed by a barrier gives every cell a
// fresh view — the same discipline uncached DSM programs already
// needed for plain remote loads.
//
// Cache hits track validity per byte range (a fill records exactly
// the bytes it fetched), evict least-recently-used pages beyond a
// configurable capacity, and return a payload view over the cached
// bytes without allocating.
package dsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"ap1000plus/internal/machine"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/topology"
)

// SharedBase is the physical address where shared space begins: bit
// 35 of the 36-bit address (32 GB local / 32 GB shared).
const SharedBase uint64 = 1 << 35

// SharedSize is the total shared space (32 GB).
const SharedSize uint64 = 1 << 35

// GAddr is a global (shared-space) address.
type GAddr uint64

// Space maps global addresses for one machine size.
type Space struct {
	cells     int
	blockSize uint64
}

// NewSpace builds the shared-space geometry for n cells. Blocks are
// the largest power of two such that n blocks fit in shared space,
// matching the hardware's "divided into blocks equally" rule (for
// 1024 cells the block is 32 MB).
func NewSpace(cells int) (*Space, error) {
	if cells < 1 || cells > 1024 {
		return nil, fmt.Errorf("dsm: %d cells out of range", cells)
	}
	block := SharedSize
	for uint64(cells)*block > SharedSize {
		block >>= 1
	}
	// Round cells up to a power of two so the cell ID occupies a
	// fixed bit field, as the upper-10-bit decode requires.
	for block*pow2ceil(uint64(cells)) > SharedSize {
		block >>= 1
	}
	return &Space{cells: cells, blockSize: block}, nil
}

func pow2ceil(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// BlockSize reports bytes of shared space per cell.
func (s *Space) BlockSize() uint64 { return s.blockSize }

// Global forms the shared-space address of offset within cell's block.
func (s *Space) Global(cell topology.CellID, offset mem.Addr) (GAddr, error) {
	if int(cell) < 0 || int(cell) >= s.cells {
		return 0, fmt.Errorf("dsm: invalid cell %d", cell)
	}
	if uint64(offset) >= s.blockSize {
		return 0, fmt.Errorf("dsm: offset %#x outside the %d-byte block", offset, s.blockSize)
	}
	return GAddr(SharedBase + uint64(cell)*s.blockSize + uint64(offset)), nil
}

// Split decodes a shared-space address into its owning cell and the
// local address at that cell. Shared offsets map identically onto the
// owner's local addresses ("half of the local memory is mapped for
// shared space").
func (s *Space) Split(ga GAddr) (topology.CellID, mem.Addr, error) {
	if uint64(ga) < SharedBase {
		return 0, 0, fmt.Errorf("dsm: %#x is not a shared address", uint64(ga))
	}
	off := uint64(ga) - SharedBase
	cell := off / s.blockSize
	if cell >= uint64(s.cells) {
		return 0, 0, fmt.Errorf("dsm: %#x decodes to nonexistent cell %d", uint64(ga), cell)
	}
	return topology.CellID(cell), mem.Addr(off % s.blockSize), nil
}

// DefaultCachePages is the page-cache capacity used when
// EnableWriteThroughPages is called without SetCacheCapacity.
const DefaultCachePages = 64

// span is one valid byte range [lo, hi) within a cached page.
type span struct{ lo, hi int64 }

// cachePage is one cached shared-space page, an intrusive LRU node.
type cachePage struct {
	key   GAddr // page-aligned global address
	owner topology.CellID
	data  []byte // PageSize bytes; only spans are valid
	spans []span // sorted, disjoint valid ranges
	// stale marks a page an invalidation hit while invalidation
	// handling was disabled (DisableInvalidation): the bytes are known
	// to predate writer's store. Coherent caches never hold stale
	// pages — they drop them instead.
	stale  bool
	writer topology.CellID
	// epoch is the fill generation this copy was registered under at
	// the owner; an eviction notice echoes it so the owner can rank the
	// notice against later re-registrations.
	epoch int32

	prev, next *cachePage
}

// DSM is one cell's shared-memory interface.
type DSM struct {
	cell  *machine.Cell
	space *Space

	scratchSeg *mem.Segment
	scratch    []float64

	// cc / tl are the cell's obs hooks, nil when unobserved.
	cc *obs.CellCounters
	tl *obs.Timeline

	// mu guards the sharer-side cache state below.
	mu       sync.Mutex
	on       bool
	coherent bool
	capacity int
	pages    map[GAddr]*cachePage
	lruHead  *cachePage // most recent
	lruTail  *cachePage
	// gens counts invalidations per page and outlives eviction: a
	// miss snapshots the generation before issuing its remote load,
	// and the fill installs only if no invalidation arrived in
	// between — an in-flight fill can never resurrect invalidated
	// bytes.
	gens map[GAddr]uint64
	// fillEpoch counts caching fills per page; each fill registers the
	// sharer at the owner under its epoch so silent-eviction notices
	// can be ranked against re-fills.
	fillEpoch map[GAddr]int32
	stats     CacheStats
	// view is the reusable payload the hit path returns: a view over
	// the cached page's bytes, valid until the next operation on this
	// DSM. Reusing one payload value is what makes hits
	// allocation-free.
	view mem.Payload

	// dirMu guards the owner-side sharer directory: for each page of
	// THIS cell's shared block (keyed by owner-local page address),
	// the cells holding a cached copy with the newest fill epoch each
	// registered. Lock order is dirMu before mu when both are needed;
	// nothing sends packets while holding either.
	dirMu sync.Mutex
	dir   map[mem.Addr]map[topology.CellID]int32
}

// CacheStats counts write-through-page activity.
type CacheStats struct {
	Hits, Misses, WriteThroughs int64
	// Evictions counts pages dropped by the LRU capacity bound.
	Evictions int64
	// InvalsSent counts invalidation messages this cell issued as a
	// page owner; InvalsReceived counts invalidations applied to this
	// cell's cache as a sharer.
	InvalsSent, InvalsReceived int64
}

// New builds the DSM interface for a cell.
func New(cell *machine.Cell) (*DSM, error) {
	space, err := NewSpace(cell.N())
	if err != nil {
		return nil, err
	}
	seg, scratch, err := cell.AllocFloat64("dsm.scratch", 1)
	if err != nil {
		return nil, err
	}
	d := &DSM{
		cell: cell, space: space, scratchSeg: seg, scratch: scratch,
		coherent:  true,
		capacity:  DefaultCachePages,
		pages:     make(map[GAddr]*cachePage),
		gens:      make(map[GAddr]uint64),
		fillEpoch: make(map[GAddr]int32),
		dir:       make(map[mem.Addr]map[topology.CellID]int32),
	}
	if o := cell.Machine().Observer(); o != nil {
		d.cc = o.Cell(int(cell.ID()))
		d.tl = o.Timeline()
	}
	cell.SetDSMHooks(&machine.DSMHooks{
		Shared: d.shared,
		Stored: func(writer topology.CellID, addr mem.Addr, size int64) {
			d.stored(writer, addr, size)
		},
		Inval:   d.inval,
		Evicted: d.evicted,
	})
	return d, nil
}

// Space exposes the address geometry.
func (d *DSM) Space() *Space { return d.space }

// EnableWriteThroughPages turns on the local page cache for remote
// reads.
func (d *DSM) EnableWriteThroughPages() {
	d.mu.Lock()
	d.on = true
	d.mu.Unlock()
}

// SetCacheCapacity bounds the cache to n pages (LRU eviction beyond
// it). n < 1 is clamped to 1. Affects future fills only.
func (d *DSM) SetCacheCapacity(n int) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	d.capacity = n
	d.mu.Unlock()
}

// DisableInvalidation makes this cell's cache IGNORE arriving
// invalidations: pages are kept and marked stale instead of dropped,
// reproducing the seed code's unchecked single-writer-by-convention
// cache. A later hit on a stale page returns the pre-store bytes —
// and files an apsan coherence-violation report when the machine is
// sanitized. Test/demonstration knob only.
func (d *DSM) DisableInvalidation() {
	d.mu.Lock()
	d.coherent = false
	d.mu.Unlock()
}

// CacheStats snapshots cache counters.
func (d *DSM) CacheStats() CacheStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Load reads size bytes at the shared address. Local blocks are read
// directly; remote blocks go through the blocking remote-load path
// (or the write-through page cache when enabled).
//
// When the returned payload is served from the page cache it is a
// view over the cached bytes, valid until the next Load or cache
// operation on this DSM — copy out (or use LoadF64) before the next
// call if the data must persist.
func (d *DSM) Load(ga GAddr, size int64) (*mem.Payload, error) {
	cell, laddr, err := d.space.Split(ga)
	if err != nil {
		return nil, err
	}
	if cell == d.cell.ID() {
		d.cell.SanRead(laddr, mem.Contiguous(size), "DSM local load")
		return mem.CapturePayload(d.cell.Mem, laddr, mem.Contiguous(size))
	}
	if p, ok := d.cacheRead(ga, size, cell); ok {
		return p, nil
	}
	caching, gen, epoch := d.fillPrep(ga, size)
	if !caching {
		return d.cell.RemoteLoad(cell, laddr, size)
	}
	p, err := d.cell.RemoteLoadCaching(cell, laddr, size, epoch)
	if err != nil {
		return nil, err
	}
	d.cacheFill(ga, cell, p, gen, epoch)
	return p, nil
}

// LoadF64 loads one float64 from shared space.
func (d *DSM) LoadF64(ga GAddr) (float64, error) {
	p, err := d.Load(ga, 8)
	if err != nil {
		return 0, err
	}
	if vals, ok := p.Float64s(); ok {
		return vals[0], nil
	}
	if b, ok := p.Bytes(); ok && len(b) == 8 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	}
	return 0, fmt.Errorf("dsm: 8-byte load returned unusable payload")
}

// Store writes the local range [laddr, laddr+size) to the shared
// address. Remote stores are non-blocking; use Fence to await their
// acknowledgements.
func (d *DSM) Store(ga GAddr, laddr mem.Addr, size int64) error {
	cell, raddr, err := d.space.Split(ga)
	if err != nil {
		return err
	}
	d.cacheInvalidate(ga, size)
	if cell == d.cell.ID() {
		d.cell.SanRead(laddr, mem.Contiguous(size), "DSM local store source")
		d.cell.SanWrite(raddr, mem.Contiguous(size), "DSM local store")
		if err := mem.Copy(d.cell.Mem, raddr, d.cell.Mem, laddr, size); err != nil {
			return err
		}
		// A local store to an owned shared page invalidates remote
		// cached copies the same way a delivered write-through store
		// does; there is no ack to order against, so it happens before
		// Store returns.
		d.stored(d.cell.ID(), raddr, size)
		return nil
	}
	d.cell.RemoteStore(cell, raddr, laddr, size)
	d.mu.Lock()
	d.stats.WriteThroughs++
	d.mu.Unlock()
	return nil
}

// StoreF64 writes one float64 to shared space via the scratch slot.
// It fences before rewriting the scratch, so repeated stores are safe
// — and the sanitizer write hook below proves it: remove the fence
// and the CPU's scratch rewrite conflicts with the previous store's
// in-flight send-DMA capture read.
func (d *DSM) StoreF64(ga GAddr, v float64) error {
	d.cell.FenceRemoteStores()
	d.scratch[0] = v
	d.cell.SanWrite(d.scratchSeg.Base(), mem.Contiguous(8), "DSM StoreF64 scratch write")
	return d.Store(ga, d.scratchSeg.Base(), 8)
}

// Fence blocks until every remote store issued by this cell has been
// acknowledged — the completion detection of S4.2. Because the owner
// invalidates sharers before acknowledging a write-through store, the
// fence also implies every invalidation those stores triggered has
// been applied.
func (d *DSM) Fence() { d.cell.FenceRemoteStores() }

// pageOf returns the page-aligned global address key for caching.
func pageOf(ga GAddr) GAddr { return ga &^ GAddr(mem.PageSize-1) }

// localPageOf returns the page-aligned owner-local address key for
// the sharer directory.
func localPageOf(a mem.Addr) mem.Addr { return a &^ mem.Addr(mem.PageSize-1) }

// cacheRead serves a load from the page cache. The returned payload
// is d.view — no allocation on a hit.
func (d *DSM) cacheRead(ga GAddr, size int64, owner topology.CellID) (*mem.Payload, bool) {
	d.mu.Lock()
	if !d.on {
		d.mu.Unlock()
		return nil, false
	}
	pg := pageOf(ga)
	if pageOf(ga+GAddr(size)-1) != pg {
		d.mu.Unlock()
		return nil, false // spans pages; fall back to remote
	}
	cp := d.pages[pg]
	if cp == nil {
		d.stats.Misses++
		d.mu.Unlock()
		if d.cc != nil {
			d.cc.DSMMisses.Add(1)
		}
		return nil, false
	}
	lo := int64(ga - pg)
	if !covered(cp.spans, lo, lo+size) {
		// The page is resident but these bytes were never fetched:
		// the seed code returned zeros here.
		d.stats.Misses++
		d.mu.Unlock()
		if d.cc != nil {
			d.cc.DSMMisses.Add(1)
		}
		return nil, false
	}
	d.stats.Hits++
	d.lruFront(cp)
	stale, writer := cp.stale, cp.writer
	d.view.SetView(cp.data[lo : lo+size])
	d.mu.Unlock()
	if d.cc != nil {
		d.cc.DSMHits.Add(1)
	}
	// Sanitizer-wise a cache hit is still a CPU read of the OWNER's
	// memory: a racing remote write to the same range must conflict
	// with it exactly as it would with an uncached remote load.
	d.cell.SanReadAt(int(owner), mem.Addr(uint64(ga)-SharedBase-uint64(owner)*d.space.blockSize),
		mem.Contiguous(size), "DSM cached load")
	if stale {
		if s := d.cell.Machine().Sanitizer(); s != nil {
			s.CoherenceViolation(int(d.cell.ID()), int(owner), int(writer), uint64(ga), size)
		}
	}
	return &d.view, true
}

// covered reports whether [lo, hi) lies within one valid span.
func covered(spans []span, lo, hi int64) bool {
	for _, s := range spans {
		if lo >= s.lo && hi <= s.hi {
			return true
		}
	}
	return false
}

// fillPrep snapshots the page's invalidation generation ahead of a
// caching remote load and advances the page's fill epoch (the load
// registers this cell at the owner under that epoch); caching is false
// when the cache is off or the range spans pages (plain remote load,
// no directory registration).
func (d *DSM) fillPrep(ga GAddr, size int64) (caching bool, gen uint64, epoch int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.on || pageOf(ga+GAddr(size)-1) != pageOf(ga) {
		return false, 0, 0
	}
	pg := pageOf(ga)
	d.fillEpoch[pg]++
	return true, d.gens[pg], d.fillEpoch[pg]
}

// cacheFill installs a loaded payload's bytes into the page cache,
// unless an invalidation for the page arrived after fillPrep. Any
// pages the capacity bound evicts have their silent-eviction notices
// sent after the cache lock is released (nothing sends while holding
// d.mu).
func (d *DSM) cacheFill(ga GAddr, owner topology.CellID, p *mem.Payload, gen uint64, epoch int32) {
	pg := pageOf(ga)
	var evicted []evictNotice
	d.mu.Lock()
	if !d.on || d.gens[pg] != gen {
		d.mu.Unlock()
		return // invalidated while the fill was in flight
	}
	cp := d.pages[pg]
	if cp == nil {
		cp = &cachePage{key: pg, owner: owner, data: make([]byte, mem.PageSize)}
		d.pages[pg] = cp
		d.lruFront(cp)
		evicted = d.evictOver()
	} else {
		d.lruFront(cp)
	}
	cp.epoch = epoch
	lo := int64(ga - pg)
	installed := false
	if b, ok := p.Bytes(); ok {
		copy(cp.data[lo:], b)
		installed = true
	} else if vals, ok := p.Float64s(); ok {
		for i, v := range vals {
			binary.LittleEndian.PutUint64(cp.data[lo+int64(i)*8:], math.Float64bits(v))
		}
		installed = true
	}
	if installed {
		cp.spans = addSpan(cp.spans, lo, lo+p.Size())
	}
	d.mu.Unlock()
	d.sendEvictNotices(evicted)
}

// addSpan merges [lo, hi) into a sorted disjoint span set.
func addSpan(spans []span, lo, hi int64) []span {
	out := spans[:0]
	for _, s := range spans {
		if s.hi < lo || s.lo > hi { // disjoint (touching ranges merge)
			out = append(out, s)
			continue
		}
		if s.lo < lo {
			lo = s.lo
		}
		if s.hi > hi {
			hi = s.hi
		}
	}
	// Insert keeping order.
	i := 0
	for i < len(out) && out[i].lo < lo {
		i++
	}
	out = append(out, span{})
	copy(out[i+1:], out[i:])
	out[i] = span{lo, hi}
	return out
}

// lruFront moves (or inserts) cp at the LRU head. Caller holds d.mu.
func (d *DSM) lruFront(cp *cachePage) {
	if d.lruHead == cp {
		return
	}
	// Unlink if resident.
	if cp.prev != nil {
		cp.prev.next = cp.next
	}
	if cp.next != nil {
		cp.next.prev = cp.prev
	}
	if d.lruTail == cp {
		d.lruTail = cp.prev
	}
	cp.prev = nil
	cp.next = d.lruHead
	if d.lruHead != nil {
		d.lruHead.prev = cp
	}
	d.lruHead = cp
	if d.lruTail == nil {
		d.lruTail = cp
	}
}

// lruRemove unlinks cp and drops it from the page map. Caller holds
// d.mu.
func (d *DSM) lruRemove(cp *cachePage) {
	if cp.prev != nil {
		cp.prev.next = cp.next
	} else if d.lruHead == cp {
		d.lruHead = cp.next
	}
	if cp.next != nil {
		cp.next.prev = cp.prev
	} else if d.lruTail == cp {
		d.lruTail = cp.prev
	}
	cp.prev, cp.next = nil, nil
	delete(d.pages, cp.key)
}

// evictNotice is one pending silent-eviction notification to a page
// owner, collected under d.mu and sent after it is released.
type evictNotice struct {
	owner topology.CellID
	page  mem.Addr // owner-local page address
	epoch int32
}

// evictOver drops LRU-tail pages until the capacity bound holds and
// returns the eviction notices the caller must send once d.mu is
// released. Caller holds d.mu. The notice keeps the owner's directory
// honest: without it every victim's entry would go stale and draw a
// spurious invalidation on the owner's next store to the page.
func (d *DSM) evictOver() []evictNotice {
	var out []evictNotice
	for len(d.pages) > d.capacity && d.lruTail != nil {
		victim := d.lruTail
		d.lruRemove(victim)
		d.stats.Evictions++
		out = append(out, evictNotice{
			owner: victim.owner,
			page:  mem.Addr(uint64(victim.key) - SharedBase - uint64(victim.owner)*d.space.blockSize),
			epoch: victim.epoch,
		})
		if d.cc != nil {
			d.cc.DSMEvictions.Add(1)
		}
		if d.tl != nil {
			// The observer exists whenever tl does.
			o := d.cell.Machine().Observer()
			d.tl.Instant(int(d.cell.ID()), obs.TidCPU, "dsm", "evict", o.NowUs())
		}
	}
	return out
}

// sendEvictNotices flushes pending eviction notices. Must be called
// without d.mu held.
func (d *DSM) sendEvictNotices(notices []evictNotice) {
	for _, n := range notices {
		d.cell.SendDSMEvict(n.owner, n.page, n.epoch)
	}
}

// cacheInvalidate drops this cell's own cached copy of a range it is
// about to store to (write-through never leaves the writer reading
// its own stale copy out of cache).
func (d *DSM) cacheInvalidate(ga GAddr, size int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.on {
		return
	}
	first := pageOf(ga)
	last := pageOf(ga + GAddr(size) - 1)
	for pg := first; pg <= last; pg += GAddr(mem.PageSize) {
		if cp := d.pages[pg]; cp != nil {
			d.lruRemove(cp)
		}
	}
}

// shared is the owner-side directory registration (the machine's
// Shared hook): sharer is about to hold a cached copy of pages of
// this cell's block, filled under the given epoch. Registrations keep
// the newest epoch seen, so a late-arriving eviction notice for an
// older copy cannot unregister a fresher one. Runs on a controller
// goroutine.
func (d *DSM) shared(sharer topology.CellID, addr mem.Addr, size int64, epoch int32) {
	if size <= 0 {
		return
	}
	first := localPageOf(addr)
	last := localPageOf(addr + mem.Addr(size) - 1)
	d.dirMu.Lock()
	for pg := first; pg <= last; pg += mem.Addr(mem.PageSize) {
		set := d.dir[pg]
		if set == nil {
			set = make(map[topology.CellID]int32)
			d.dir[pg] = set
		}
		if have, ok := set[sharer]; !ok || have < epoch {
			set[sharer] = epoch
		}
	}
	d.dirMu.Unlock()
}

// evicted is the owner-side response to a sharer's silent-eviction
// notice (the machine's Evicted hook): drop the sharer from the page's
// set unless a newer fill has re-registered it — the notice raced a
// re-fill and lost. Runs on a controller goroutine.
func (d *DSM) evicted(sharer topology.CellID, page mem.Addr, epoch int64) {
	pg := localPageOf(page)
	d.dirMu.Lock()
	if set := d.dir[pg]; set != nil {
		if have, ok := set[sharer]; ok && int64(have) <= epoch {
			delete(set, sharer)
			if len(set) == 0 {
				delete(d.dir, pg)
			}
		}
	}
	d.dirMu.Unlock()
}

// stored is the owner-side invalidation fan-out (the machine's Stored
// hook, and the local-store path above): a store into [addr,
// addr+size) of this cell's block has been applied; every registered
// sharer of the written pages is invalidated. The sharer sets are
// snapshotted under dirMu and the sends happen lock-free, so an
// invalidation's synchronous delivery (which takes the sharer's cache
// lock) can never deadlock against a concurrent registration.
func (d *DSM) stored(writer topology.CellID, addr mem.Addr, size int64) {
	if size <= 0 {
		return
	}
	first := localPageOf(addr)
	last := localPageOf(addr + mem.Addr(size) - 1)
	type outInval struct {
		dst  topology.CellID
		page mem.Addr
	}
	var out []outInval
	d.dirMu.Lock()
	for pg := first; pg <= last; pg += mem.Addr(mem.PageSize) {
		for sharer := range d.dir[pg] {
			out = append(out, outInval{sharer, pg})
		}
		delete(d.dir, pg)
	}
	d.dirMu.Unlock()
	if len(out) == 0 {
		return
	}
	d.mu.Lock()
	d.stats.InvalsSent += int64(len(out))
	d.mu.Unlock()
	for _, iv := range out {
		d.cell.SendDSMInval(iv.dst, iv.page, writer)
	}
}

// inval is the sharer-side invalidation (the machine's Inval hook):
// the page at owner-local address page of owner's block was written
// by writer. Coherent caches drop the page; with invalidation
// disabled the page is kept and marked stale. Either way the page's
// generation advances, so an in-flight fill that predates the
// invalidation is discarded. Runs on a controller goroutine.
func (d *DSM) inval(owner topology.CellID, page mem.Addr, writer topology.CellID) {
	pg := pageOf(GAddr(SharedBase + uint64(owner)*d.space.blockSize + uint64(page)))
	d.mu.Lock()
	d.gens[pg]++
	d.stats.InvalsReceived++
	if cp := d.pages[pg]; cp != nil {
		if d.coherent {
			d.lruRemove(cp)
		} else {
			cp.stale = true
			cp.writer = writer
		}
	}
	d.mu.Unlock()
}
