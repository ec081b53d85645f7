// Package apsan is a happens-before race detector for the simulated
// AP1000+ — a sanitizer for the machine's PUT/GET communication, not
// for the Go program running it (go test -race covers that).
//
// The paper's interface is deliberately unsafe: PUT and GET are
// non-blocking, remote writes land whenever the network delivers
// them, and the only ordering tools a program has are flag
// increments, the acknowledge chain, communication-register p-bits,
// barrier episodes, and message receipt. A program that reads a
// buffer an in-flight PUT is still overwriting is silently wrong on
// the real machine; apsan makes it loudly wrong on the simulator.
//
// Model. Every cell contributes two logical threads: its CPU (the
// SPMD program goroutine) and its MSC+ controller (the send/receive
// DMA engine). Each thread carries a vector clock. Synchronization
// operations move clocks between threads:
//
//   - command issue: the CPU's clock rides the queued command and is
//     acquired by the controller that pops it;
//   - packet transmit: the sending controller's clock, frozen into a
//     token at transmit, rides the packet, and the receiving MSC+'s
//     hooks run under it (the receive DMA may run long after the
//     sender moved on, so its own clock would claim too much);
//   - flag increment -> flag wait: the incrementing controller
//     releases into the flag, the waiting CPU acquires (S4.1 "flag
//     update combined with data transfer");
//   - S-net barrier: an episode joins every arriving CPU's clock and
//     every departure acquires the join, one episode per partition's
//     barrier domain (S4.4);
//   - communication-register store -> p-bit load (S4.4);
//   - message payloads: SEND/broadcast/remote-load-reply payloads
//     carry the producer's clock to whoever consumes them (S4.3).
//
// DMA accesses are stamped with the *controller's* clock, never the
// issuing CPU's. That is the load-bearing choice: it encodes that a
// barrier alone does NOT order an in-flight PUT — only a flag
// increment, acknowledgement, or receipt publishes DMA completion,
// which is exactly the Ack & Barrier motivation of S2.2.
//
// Shadow state is kept per 8-byte granule of simulated DRAM (the
// machine's traffic is float64s and page-aligned buffers, so false
// sharing below 8 bytes does not occur in practice). Communication
// registers are treated as pure synchronization, not data locations.
// Direct Go-slice access to segment backing arrays is invisible to
// the sanitizer; only simulated accesses (DMA captures/deliveries
// and the hooks library code places on its CPU-side copies) are
// checked.
//
// The package is dependency-free (plain ints and uint64s) so that
// low-level packages (msc, mem, tnet) can carry its tokens as opaque
// `any` fields without import cycles.
package apsan

import (
	"fmt"
	"sort"
	"sync"
)

// granuleBytes is the shadow-memory resolution.
const granuleBytes = 8

// maxReports bounds stored reports; further races are counted only.
const maxReports = 64

// Site describes one side of a conflicting access pair.
type Site struct {
	// Cell is the cell whose memory engine performed the access.
	Cell int
	// Tid is the logical thread (see CPU/Ctl).
	Tid int
	// Op names the user-visible operation ("PUT receive DMA", "GET
	// reply read", "RECEIVE copy", "DSM load", ...).
	Op string
	// Addr/Size give the full simulated address range of the access
	// on the cell named by MemCell.
	Addr uint64
	Size int64
	// MemCell is the cell whose DRAM was accessed (for remote writes
	// this differs from Cell).
	MemCell int
}

func (s Site) String() string {
	kind := "cpu"
	if s.Tid%2 == 1 {
		kind = "msc"
	}
	return fmt.Sprintf("cell %d (%s) %s @ cell %d [%#x,+%d)",
		s.Cell, kind, s.Op, s.MemCell, s.Addr, s.Size)
}

// Report is one detected race: two accesses to an overlapping
// simulated address range, at least one a write, with no
// happens-before edge between them.
type Report struct {
	// Prior is the access recorded earlier in shadow memory; Access
	// is the one that detected the conflict.
	Prior, Access Site
	// Lo and Hi bound the conflicting granules ([Lo, Hi+8)).
	Lo, Hi uint64
}

func (r Report) String() string {
	return fmt.Sprintf("apsan: unsynchronized conflicting accesses to cell %d memory [%#x,%#x):\n  earlier: %s\n  current: %s",
		r.Prior.MemCell, r.Lo, r.Hi+granuleBytes, r.Prior, r.Access)
}

// epoch stamps one shadow entry: thread tid at clock, on behalf of
// site.
type epoch struct {
	tid   int
	clock uint64
	site  *Site
}

// granule is the shadow state of 8 bytes of one cell's DRAM.
type granule struct {
	w  epoch   // last write (site == nil when none yet)
	rd []epoch // reads since the last write, at most one per tid
}

// token is a released clock snapshot carried by commands/payloads.
type token struct{ vc []uint64 }

// episode is one barrier generation of one S-net domain.
type episode struct {
	vc     []uint64
	joined int
}

// Sanitizer is the machine-wide detector. All methods are safe for
// concurrent use; a single mutex serializes them (sanitized runs
// trade speed for checking).
type Sanitizer struct {
	mu     sync.Mutex
	clocks [][]uint64 // per tid

	flags map[uint64][]uint64 // (cell, flag)  -> released clock
	cregs map[uint64][]uint64 // (cell, index) -> released clock
	bars  map[int]*episode    // open episode per barrier domain

	shadow map[uint64]*granule

	// parked holds tokens released through ReleaseHandle, so carriers
	// that must stay pointer-free (the MSC+ command words and packet
	// headers) can refer to them by a compact id instead of an
	// interface. Every handle is consumed exactly once, by
	// AcquireHandle or Drop; stale counts hooks that named a consumed
	// handle, whose checks were skipped.
	parked     map[int64]*token
	nextHandle int64
	stale      int

	reports    []Report
	suppressed int
	seen       map[string]bool

	// OnReport, when non-nil, is invoked (under the sanitizer lock)
	// for every recorded report; the machine uses it to raise an OS
	// interrupt on the detecting cell.
	OnReport func(Report)
}

// New builds a sanitizer for a machine of the given cell count.
func New(cells int) *Sanitizer {
	n := 2 * cells
	s := &Sanitizer{
		clocks: make([][]uint64, n),
		flags:  make(map[uint64][]uint64),
		cregs:  make(map[uint64][]uint64),
		bars:   make(map[int]*episode),
		shadow: make(map[uint64]*granule),
		parked: make(map[int64]*token),
		seen:   make(map[string]bool),
	}
	for t := range s.clocks {
		s.clocks[t] = make([]uint64, n)
		s.clocks[t][t] = 1
	}
	return s
}

// CPU returns the logical thread id of a cell's program goroutine.
func (s *Sanitizer) CPU(cell int) int { return 2 * cell }

// Ctl returns the logical thread id of a cell's MSC+ controller.
func (s *Sanitizer) Ctl(cell int) int { return 2*cell + 1 }

func join(dst, src []uint64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Release snapshots tid's clock into an opaque token (for a command,
// payload, or packet to carry) and advances the thread so later
// events are not covered by the snapshot.
func (s *Sanitizer) Release(tid int) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.releaseLocked(tid)
}

func (s *Sanitizer) releaseLocked(tid int) *token {
	vc := make([]uint64, len(s.clocks[tid]))
	copy(vc, s.clocks[tid])
	s.clocks[tid][tid]++
	return &token{vc: vc}
}

// ReleaseHandle is Release for carriers that must stay pointer-free:
// the token is parked inside the sanitizer and identified by a
// non-zero id the carrier stores as a plain integer. Keeping pointers
// out of msc.Command matters even with the sanitizer off — the field
// type alone would make every queued command GC-scannable.
func (s *Sanitizer) ReleaseHandle(tid int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextHandle++
	s.parked[s.nextHandle] = s.releaseLocked(tid)
	return s.nextHandle
}

// AcquireHandle joins the token parked under h into tid's clock and
// frees it. Handle 0 (an unsanitized producer) is a no-op.
func (s *Sanitizer) AcquireHandle(tid int, h int64) {
	if h == 0 {
		return
	}
	s.mu.Lock()
	if t := s.parked[h]; t != nil {
		join(s.clocks[tid], t.vc)
		delete(s.parked, h)
	}
	s.mu.Unlock()
}

// Drop frees the token parked under h without acquiring it: its
// carrier was delivered to a hook that only read it, or given up.
// Dropping handle 0 or a consumed handle is a no-op.
func (s *Sanitizer) Drop(h int64) {
	if h == 0 {
		return
	}
	s.mu.Lock()
	delete(s.parked, h)
	s.mu.Unlock()
}

// Copy parks a copy of the token under h and returns its handle, for
// a carrier that stands in for h's own; 0 when h is not parked.
func (s *Sanitizer) Copy(h int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.parked[h]
	if h == 0 || t == nil {
		return 0
	}
	s.nextHandle++
	s.parked[s.nextHandle] = &token{vc: append([]uint64(nil), t.vc...)}
	return s.nextHandle
}

// TokenErr reports a broken handle discipline: tokens still parked (a
// drained machine has none) or hooks run under a consumed handle.
func (s *Sanitizer) TokenErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.parked); n != 0 || s.stale != 0 {
		return fmt.Errorf("apsan: %d tokens still parked, %d hooks under a consumed token", n, s.stale)
	}
	return nil
}

// clock is the vector clock a hook of tid runs under: the token parked
// under h, frozen at its release, or tid's live clock when h is 0. A
// consumed h yields nil and counts as stale: the hook is skipped, and
// Err and TokenErr report it. Called with s.mu held.
func (s *Sanitizer) clock(tid int, h int64) []uint64 {
	if h == 0 {
		return s.clocks[tid]
	}
	if t := s.parked[h]; t != nil {
		return t.vc
	}
	s.stale++
	return nil
}

// Acquire joins a previously released token into tid's clock. A nil
// token (unsanitized producer) is a no-op.
func (s *Sanitizer) Acquire(tid int, h any) {
	if h == nil {
		return
	}
	t, ok := h.(*token)
	if !ok {
		return
	}
	s.mu.Lock()
	join(s.clocks[tid], t.vc)
	s.mu.Unlock()
}

func flagKey(cell int, flag int32) uint64 {
	return uint64(cell)<<32 | uint64(uint32(flag))
}

// FlagInc records that tid is about to increment (cell, flag): the
// clock tid runs under (token h, or its live clock when h is 0) is
// released into the flag. Call BEFORE the actual mc.Flags.Inc so a
// waiter can never observe the increment first. A live clock then
// advances; a token's never does, so a delivery makes its accesses
// before its releases. Flag 0 (NoFlag) is a no-op, like the hardware.
func (s *Sanitizer) FlagInc(tid int, h int64, cell int, flag int32) {
	if flag == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release(s.flags, tid, h, cell, flag, 1)
}

// release joins the clock tid runs under into the n release channels
// (cell, first) .. (cell, first+n-1) of m, then advances tid's live
// clock (a token stays frozen). Called with s.mu held.
func (s *Sanitizer) release(m map[uint64][]uint64, tid int, h int64, cell int, first int32, n int) {
	src := s.clock(tid, h)
	if src == nil {
		return
	}
	for i := int32(0); i < int32(n); i++ {
		k := flagKey(cell, first+i)
		vc := m[k]
		if vc == nil {
			vc = make([]uint64, len(s.clocks))
			m[k] = vc
		}
		join(vc, src)
	}
	if h == 0 {
		src[tid]++
	}
}

// FlagWaited records that tid's wait on (cell, flag) completed: the
// flag's accumulated releases are acquired. Call AFTER the wait
// returns.
func (s *Sanitizer) FlagWaited(tid, cell int, flag int32) {
	if flag == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if vc := s.flags[flagKey(cell, flag)]; vc != nil {
		join(s.clocks[tid], vc)
	}
}

// CregStore records a store (with p-bit set) to communication
// register idx of cell under the clock tid runs under (token h, or its
// live clock when h is 0); widthWords is 1 or 2. Call BEFORE the store.
func (s *Sanitizer) CregStore(tid int, h int64, cell, idx, widthWords int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release(s.cregs, tid, h, cell, int32(idx), widthWords)
}

// CregLoaded records a completed p-bit load of register idx on cell.
// Call AFTER the blocking load returns.
func (s *Sanitizer) CregLoaded(tid, cell, idx, widthWords int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for w := 0; w < widthWords; w++ {
		if vc := s.cregs[flagKey(cell, int32(idx+w))]; vc != nil {
			join(s.clocks[tid], vc)
		}
	}
}

// BarrierArrive joins tid into the current episode of S-net domain
// dom, whose barrier spans size cells, and returns an opaque episode
// token. Call BEFORE snet.Arrive. Because Arrive blocks until every
// cell of the domain joined, the token's clock is complete by the time
// any BarrierDone runs; the domains of a partitioned machine keep
// separate episodes, so one tenant's barriers never order another's.
func (s *Sanitizer) BarrierArrive(tid, dom, size int) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := s.bars[dom]
	if ep == nil {
		ep = &episode{vc: make([]uint64, len(s.clocks))}
		s.bars[dom] = ep
	}
	join(ep.vc, s.clocks[tid])
	s.clocks[tid][tid]++
	if ep.joined++; ep.joined == size {
		delete(s.bars, dom) // next episode starts fresh
	}
	return ep
}

// BarrierDone acquires the episode joined by BarrierArrive. Call
// AFTER snet.Arrive returns.
func (s *Sanitizer) BarrierDone(tid int, tok any) {
	ep, ok := tok.(*episode)
	if !ok {
		return
	}
	s.mu.Lock()
	join(s.clocks[tid], ep.vc)
	s.mu.Unlock()
}

// Quiesce records a drain of cells [lo, lo+n): everything their CPU
// and controller threads did before it happens before everything they
// do after — the edge between two jobs run back to back on one
// partition.
func (s *Sanitizer) Quiesce(lo, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]uint64, len(s.clocks))
	for t := s.CPU(lo); t < s.CPU(lo+n); t++ {
		join(all, s.clocks[t])
	}
	for t := s.CPU(lo); t < s.CPU(lo+n); t++ {
		join(s.clocks[t], all)
	}
}

func shadowKey(cell int, gaddr uint64) uint64 {
	return uint64(cell)<<40 | gaddr/granuleBytes
}

// Access checks and records one simulated memory access by tid under
// the clock it runs under (token h, or its live clock when h is 0): a
// stride pattern of count items of itemSize bytes starting at addr in
// memCell's DRAM, with skip bytes between items. op labels the
// user-visible operation for reports. write distinguishes receive-DMA
// stores from capture reads.
func (s *Sanitizer) Access(tid int, h int64, cell int, write bool, memCell int, addr uint64, itemSize, count, skip int64, op string) {
	if count <= 0 || itemSize <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vc := s.clock(tid, h)
	if vc == nil {
		return
	}
	site := &Site{Cell: cell, Tid: tid, Op: op, Addr: addr, Size: itemSize * count, MemCell: memCell}
	now := epoch{tid: tid, clock: vc[tid], site: site}

	type rng struct{ lo, hi uint64 }
	conflicts := map[*Site]*rng{}
	note := func(prior *Site, g uint64) {
		r := conflicts[prior]
		if r == nil {
			conflicts[prior] = &rng{lo: g, hi: g}
			return
		}
		if g < r.lo {
			r.lo = g
		}
		if g > r.hi {
			r.hi = g
		}
	}
	ordered := func(e epoch) bool { return vc[e.tid] >= e.clock }

	for i := int64(0); i < count; i++ {
		base := addr + uint64(i)*uint64(itemSize+skip)
		for g := base &^ (granuleBytes - 1); g < base+uint64(itemSize); g += granuleBytes {
			k := shadowKey(memCell, g)
			gr := s.shadow[k]
			if gr == nil {
				gr = &granule{}
				s.shadow[k] = gr
			}
			if write {
				if gr.w.site != nil && gr.w.tid != tid && !ordered(gr.w) {
					note(gr.w.site, g)
				}
				for _, r := range gr.rd {
					if r.tid != tid && !ordered(r) {
						note(r.site, g)
					}
				}
				gr.w = now
				gr.rd = gr.rd[:0]
			} else {
				if gr.w.site != nil && gr.w.tid != tid && !ordered(gr.w) {
					note(gr.w.site, g)
				}
				found := false
				for j := range gr.rd {
					if gr.rd[j].tid == tid {
						gr.rd[j] = now
						found = true
						break
					}
				}
				if !found {
					gr.rd = append(gr.rd, now)
				}
			}
		}
	}

	// Deterministic report order within one access.
	var priors []*Site
	for p := range conflicts {
		priors = append(priors, p)
	}
	sort.Slice(priors, func(i, j int) bool {
		a, b := conflicts[priors[i]], conflicts[priors[j]]
		return a.lo < b.lo
	})
	for _, prior := range priors {
		r := conflicts[prior]
		s.report(Report{Prior: *prior, Access: *site, Lo: r.lo, Hi: r.hi})
	}
}

// CoherenceViolation files a report for a DSM cache hit on a page that
// a remote write-through store invalidated while invalidation handling
// was disabled on the reading cell: the load observably returned stale
// bytes. This is not a happens-before race in the vector-clock sense —
// the directory protocol delivered the invalidation, the cache chose
// to ignore it — so it is reported directly rather than through the
// shadow-memory check. cell is the reader, owner the cell whose shared
// block holds the page, writer the cell whose store invalidated it.
func (s *Sanitizer) CoherenceViolation(cell, owner, writer int, addr uint64, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prior := Site{
		Cell: writer, Tid: s.CPU(writer),
		Op:   "DSM write-through store (page invalidated)",
		Addr: addr, Size: size, MemCell: owner,
	}
	acc := Site{
		Cell: cell, Tid: s.CPU(cell),
		Op:   "DSM cached load of a stale page (invalidation disabled)",
		Addr: addr, Size: size, MemCell: owner,
	}
	s.report(Report{
		Prior: prior, Access: acc,
		Lo: addr &^ (granuleBytes - 1),
		Hi: (addr + uint64(size) - 1) &^ (granuleBytes - 1),
	})
}

// report dedups by access-pair identity and stores/bounds reports.
// Called with s.mu held.
func (s *Sanitizer) report(r Report) {
	key := fmt.Sprintf("%d/%s/%d|%d/%s/%d", r.Prior.Tid, r.Prior.Op, r.Prior.Addr, r.Access.Tid, r.Access.Op, r.Access.Addr)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	if len(s.reports) >= maxReports {
		s.suppressed++
		return
	}
	s.reports = append(s.reports, r)
	if s.OnReport != nil {
		s.OnReport(r)
	}
}

// Reports returns the recorded races.
func (s *Sanitizer) Reports() []Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Report, len(s.reports))
	copy(out, s.reports)
	return out
}

// Err returns nil when the run was race-free, or an error detailing
// the first report and the total count. Hooks run under a consumed
// token skipped their checks, so they fail the run too.
func (s *Sanitizer) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.reports) == 0 {
		if s.stale != 0 {
			return fmt.Errorf("apsan: %d hooks ran under a consumed token; their checks were skipped", s.stale)
		}
		return nil
	}
	total := len(s.reports) + s.suppressed
	return fmt.Errorf("%s\n(%d race report(s) total)", s.reports[0], total)
}
