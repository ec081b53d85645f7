package mc

import (
	"fmt"
	"sync"

	"ap1000plus/internal/mem"
)

// PageFaultError reports an access to an unmapped logical page. When
// the faulting access comes from a PUT/GET set up at user level, the
// operating system cannot pre-check it, so "the hardware must check
// for illegal addresses" (S3.2) — this error is that check firing.
type PageFaultError struct {
	Addr mem.Addr
	Size int64
}

func (e *PageFaultError) Error() string {
	return fmt.Sprintf("mc: page fault at %#x (+%d bytes)", e.Addr, e.Size)
}

// TLBConfig fixes the AP1000+ MC's TLB geometry (S4.1): direct-mapped,
// 256 entries for 4-kilobyte pages and 64 entries for 256-kilobyte
// pages.
type TLBConfig struct {
	SmallEntries int
	BigEntries   int
}

// DefaultTLB is the hardware's configuration.
var DefaultTLB = TLBConfig{SmallEntries: 256, BigEntries: 64}

type tlbEntry struct {
	valid bool
	page  uint64
	frame uint64
}

// TLBStats counts translation outcomes.
type TLBStats struct {
	Hits   int64
	Misses int64
	Walks  int64 // page-table walks performed by the walker
	Faults int64
}

// MMU translates logical to physical addresses for the MC, as the
// MSC+ requires before activating DMA ("Using the MMU in the MC, the
// MSC+ converts the logical address to a physical address"). Pages
// above BigPageThreshold are translated through the 256 KB TLB.
//
// The MMU is safe for concurrent translation: the receive controller
// translates inbound DMA targets while the CPU issues new commands.
type MMU struct {
	mu    sync.Mutex
	table map[uint64]uint64 // small-page number -> frame
	small []tlbEntry
	big   []tlbEntry
	next  uint64 // next free physical frame
	stats TLBStats
}

// NewMMU builds an MMU with the given TLB geometry.
func NewMMU(cfg TLBConfig) *MMU {
	if cfg.SmallEntries <= 0 || cfg.BigEntries <= 0 {
		panic("mc: non-positive TLB size")
	}
	return &MMU{
		table: make(map[uint64]uint64),
		small: make([]tlbEntry, cfg.SmallEntries),
		big:   make([]tlbEntry, cfg.BigEntries),
	}
}

// Map establishes logical->physical mappings for every small page in
// [addr, addr+size). The machine calls this when a segment is
// allocated; remapping an already-mapped page is a no-op.
func (m *MMU) Map(addr mem.Addr, size int64) {
	if size <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	first := uint64(addr) / mem.PageSize
	last := (uint64(addr) + uint64(size) - 1) / mem.PageSize
	for p := first; p <= last; p++ {
		if _, ok := m.table[p]; !ok {
			m.table[p] = m.next
			m.next++
		}
	}
}

// Unmap removes the mapping of every page fully inside [addr,
// addr+size) and invalidates matching TLB entries.
func (m *MMU) Unmap(addr mem.Addr, size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	first := uint64(addr) / mem.PageSize
	last := (uint64(addr) + uint64(size) - 1) / mem.PageSize
	for p := first; p <= last; p++ {
		delete(m.table, p)
		e := &m.small[p%uint64(len(m.small))]
		if e.valid && e.page == p {
			e.valid = false
		}
		bp := p * mem.PageSize / mem.BigPageSize
		be := &m.big[bp%uint64(len(m.big))]
		if be.valid && be.page == bp {
			be.valid = false
		}
	}
}

// Translate converts the logical range [addr, addr+size) to a
// physical address, checking that every page it touches is mapped.
// Contiguity of logical pages maps to contiguity of the returned
// physical range only for the first page's frame; callers use the
// fault check and the TLB statistics, not physical layout.
func (m *MMU) Translate(addr mem.Addr, size int64) (phys uint64, err error) {
	if size <= 0 {
		size = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// A range that runs past the top of the address space would wrap
	// last below first and skip the page check entirely.
	if uint64(size-1) > ^uint64(addr) {
		m.stats.Faults++
		return 0, &PageFaultError{Addr: addr, Size: size}
	}
	first := uint64(addr) / mem.PageSize
	last := (uint64(addr) + uint64(size) - 1) / mem.PageSize
	var frame0 uint64
	for p := first; p <= last; p++ {
		frame, ok := m.lookup(p)
		if !ok {
			m.stats.Faults++
			return 0, &PageFaultError{Addr: mem.Addr(p * mem.PageSize), Size: size}
		}
		if p == first {
			frame0 = frame
		}
	}
	return frame0*mem.PageSize + uint64(addr)%mem.PageSize, nil
}

// lookup consults the TLBs and falls back to the walker. Caller holds mu.
func (m *MMU) lookup(page uint64) (uint64, bool) {
	// Big-page TLB first: one entry covers 64 small pages.
	bigPage := page * mem.PageSize / mem.BigPageSize
	be := &m.big[bigPage%uint64(len(m.big))]
	if be.valid && be.page == bigPage {
		// Frame stored per big page is the frame of its first small
		// page; small pages inside are frame-contiguous by
		// construction only if mapped consecutively. We re-derive via
		// the table but still count it a hit (no walk latency).
		if frame, ok := m.table[page]; ok {
			m.stats.Hits++
			return frame, true
		}
		be.valid = false // stale big mapping
	}
	se := &m.small[page%uint64(len(m.small))]
	if se.valid && se.page == page {
		m.stats.Hits++
		return se.frame, true
	}
	// Miss: the MC's hardware walker reads the page table.
	m.stats.Misses++
	m.stats.Walks++
	frame, ok := m.table[page]
	if !ok {
		return 0, false
	}
	*se = tlbEntry{valid: true, page: page, frame: frame}
	// Promote fully-mapped big pages so dense segments hit the big TLB.
	firstSmall := bigPage * (mem.BigPageSize / mem.PageSize)
	full := true
	for p := firstSmall; p < firstSmall+mem.BigPageSize/mem.PageSize; p++ {
		if _, ok := m.table[p]; !ok {
			full = false
			break
		}
	}
	if full {
		*(&m.big[bigPage%uint64(len(m.big))]) = tlbEntry{valid: true, page: bigPage, frame: m.table[firstSmall]}
	}
	return frame, true
}

// Stats returns a snapshot of the TLB statistics.
func (m *MMU) Stats() TLBStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Mapped reports whether the whole range [addr, addr+size) is mapped.
func (m *MMU) Mapped(addr mem.Addr, size int64) bool {
	_, err := m.Translate(addr, size)
	return err == nil
}
