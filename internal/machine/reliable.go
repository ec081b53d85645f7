package machine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ap1000plus/internal/fault"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/tnet"
	"ap1000plus/internal/topology"
)

// CellFault reports a transfer the MSC+ abandoned after exhausting its
// reliable-delivery retry budget: the unrecoverable end of graceful
// degradation under a fault plan. It lands in the source cell's OS
// fault log and is surfaced machine-wide through Machine.FaultErr.
type CellFault struct {
	Cell     topology.CellID // the cell that gave up
	Dst      topology.CellID
	Op       msc.Op
	Seq      uint64
	Attempts int
}

func (f *CellFault) Error() string {
	return fmt.Sprintf("machine: cell %d: %s to cell %d (seq %d) undeliverable after %d attempts",
		f.Cell, f.Op, f.Dst, f.Seq, f.Attempts)
}

// Unwrap ties every retry-budget exhaustion to the ErrRetryBudget
// sentinel, so callers test errors.Is(err, ErrRetryBudget) instead of
// matching the message.
func (f *CellFault) Unwrap() error { return ErrRetryBudget }

// relay is the machine's reliable-delivery layer, active only when the
// machine was built with a fault plan. It gives every T-net packet a
// per-link sequence number and an end-to-end checksum, retransmits on
// rejected delivery with simulated exponential backoff, and dedups on
// the receive side so retried or duplicated packets take effect
// exactly once (the MC's flag fetch-and-increment must not double
// fire). A nil *relay is the off state: Seq and Sum stay zero and the
// wire is trusted, exactly the pre-fault machine.
type relay struct {
	m     *Machine
	inj   *fault.Injector
	cells int
	links []relLink // [src*cells+dst]

	mu     sync.Mutex
	faults []error
}

// atomicReplayWindow bounds the per-link result-replay cache: the
// fetch results of the last atomicReplayWindow executed atomic
// requests on the link. Duplicates older than the window lose their
// cached result (the replay degrades to a bare ack), so the cache can
// never grow with the run length.
const atomicReplayWindow = 128

// relLink is one directed (src, dst) link's reliable-delivery state:
// the sender-side sequence counter and the receiver-side dedup window.
// Several workers can transmit on one link (a cell's own commands,
// its GET replies, remote-store acks executing in other workers'
// deliveries), so both sides are under the link mutex.
type relLink struct {
	mu      sync.Mutex
	nextSeq uint64
	// contig is the receive watermark: every seq <= contig has been
	// accepted. seen holds accepted seqs above the watermark (holes
	// from reordering), collapsed back into contig as they fill.
	contig uint64
	seen   map[uint64]bool
	// abandoned holds sender-side sequence numbers whose retry budget
	// was exhausted. An abandoned seq may never arrive, which would
	// leave a permanent hole under the receive watermark and let seen
	// grow without bound; the machine's drain reconciles these holes
	// (see relay.reconcileRange).
	abandoned map[uint64]bool
	// results is the atomic result-replay cache: fetch results of
	// executed OpAtomic requests keyed by seq, bounded to the last
	// atomicReplayWindow entries FIFO. A duplicated fetch-add must
	// return the cached old value instead of re-executing — unlike the
	// idempotent flag increments, a replayed RMW is observable. Both
	// halves wait for the first cacheResult: few of cells² links carry one.
	results    map[uint64]int64
	resultFifo *[atomicReplayWindow]uint64
	resultPos  int
}

// see records seq as received and reports whether it was a duplicate.
func (l *relLink) see(seq uint64) (dup bool) {
	if seq <= l.contig || l.seen[seq] {
		return true
	}
	if seq == l.contig+1 {
		l.contig++
		for l.seen[l.contig+1] {
			delete(l.seen, l.contig+1)
			l.contig++
		}
		return false
	}
	if l.seen == nil {
		l.seen = make(map[uint64]bool)
	}
	l.seen[seq] = true
	return false
}

// cacheResult records the fetch result of an executed atomic request,
// evicting the oldest cached result once the window is full.
func (l *relLink) cacheResult(seq uint64, val int64) {
	if l.results == nil {
		l.results = make(map[uint64]int64, atomicReplayWindow)
		l.resultFifo = new([atomicReplayWindow]uint64)
	}
	if old := l.resultFifo[l.resultPos]; old != 0 {
		delete(l.results, old)
	}
	l.resultFifo[l.resultPos] = seq
	l.resultPos = (l.resultPos + 1) % atomicReplayWindow
	l.results[seq] = val
}

// abandon marks a sender-side seq as permanently undeliverable.
func (r *relay) abandon(src, dst topology.CellID, seq uint64) {
	link := &r.links[int(src)*r.cells+int(dst)]
	link.mu.Lock()
	if seq > link.contig && !link.seen[seq] {
		if link.abandoned == nil {
			link.abandoned = make(map[uint64]bool)
		}
		link.abandoned[seq] = true
	}
	link.mu.Unlock()
}

// cachedResult looks up the replay cache for a duplicated atomic
// request on the (src, dst) link.
func (r *relay) cachedResult(src, dst topology.CellID, seq uint64) (int64, bool) {
	link := &r.links[int(src)*r.cells+int(dst)]
	link.mu.Lock()
	v, ok := link.results[seq]
	link.mu.Unlock()
	return v, ok
}

// noteResult stores an executed atomic's fetch result in the (src,
// dst) link's replay cache.
func (r *relay) noteResult(src, dst topology.CellID, seq uint64, val int64) {
	link := &r.links[int(src)*r.cells+int(dst)]
	link.mu.Lock()
	link.cacheResult(seq, val)
	link.mu.Unlock()
}

// reconcileRange runs once a partition is quiescent: every abandoned
// seq — none can still arrive, its held copies were discarded with it —
// is marked received so the holes it left collapse and the dedup
// windows drain to empty. Without this, a retry-budget exhaustion
// under a sustained reorder plan grows seen without bound for the rest
// of the run. It is scoped to links whose source cell lies in [lo, hi)
// — one partition's drain, which must not touch a neighbor partition's
// links while that neighbor is mid-job. Links to destinations outside
// the range are scanned too, but under partition isolation they never
// carried traffic and are empty.
func (r *relay) reconcileRange(lo, hi int) {
	for src := lo; src < hi; src++ {
		for dst := 0; dst < r.cells; dst++ {
			l := &r.links[src*r.cells+dst]
			l.mu.Lock()
			for seq := range l.abandoned {
				delete(l.abandoned, seq)
				l.see(seq)
			}
			l.mu.Unlock()
		}
	}
}

func newRelay(m *Machine, inj *fault.Injector) *relay {
	cells := m.torus.Cells()
	return &relay{m: m, inj: inj, cells: cells, links: make([]relLink, cells*cells)}
}

// packetSum is the end-to-end checksum the MSC+ stamps into Sum at
// transmit and verifies on receive: FNV-1a over the header words that
// route and apply the packet, extended with the payload hash. The Sum
// field itself is excluded (it is the digest).
func packetSum(h *msc.Command, payload *mem.Payload) uint64 {
	const prime = 1099511628211
	s := payload.Sum64()
	for _, w := range [...]uint64{
		uint64(h.Op), uint64(h.Src), uint64(h.Dst),
		uint64(h.RAddr), uint64(h.LAddr),
		uint64(h.RStride.ItemSize), uint64(h.RStride.Count), uint64(h.RStride.Skip),
		uint64(h.LStride.ItemSize), uint64(h.LStride.Count), uint64(h.LStride.Skip),
		uint64(h.SendFlag), uint64(h.RecvFlag),
		uint64(h.Port), uint64(h.Tag), h.Seq,
		b2u64(h.CacheFill),
		uint64(h.AOp), uint64(h.AVal), uint64(h.ACmp),
	} {
		for i := 0; i < 64; i += 8 {
			s = (s ^ (w >> i & 0xff)) * prime
		}
	}
	return s
}

func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// xmit routes a packet out of cell c. Without a fault plan it is a
// plain tnet.Transmit; with one, the relay stamps the reliable-delivery
// header into *p and retries up to the budget while Transmit reports
// the attempt lost (the injector's fate, or an inline receiver's
// rejection), charging simulated backoff to c's counters. It reports
// whether an attempt got through; an abandoned packet's held copies
// are dropped. A cross-shard packet is only staged: the caller is a
// delivery worker, which flushes its shard's outboxes before it
// uncounts the work that transmitted it.
func (m *Machine) xmit(c *Cell, p *tnet.Packet) bool {
	if s := m.san; s != nil && p.SanTid >= 0 && p.Head.San == 0 {
		// The packet carries its sender's clock as of now (sanClock).
		p.Head.San = s.ReleaseHandle(p.SanTid)
	}
	r := m.rel
	if r == nil {
		return m.tnet.Transmit(p)
	}
	link := &r.links[int(p.Head.Src)*r.cells+int(p.Head.Dst)]
	link.mu.Lock()
	link.nextSeq++
	p.Head.Seq = link.nextSeq
	link.mu.Unlock()
	p.Head.Sum = packetSum(&p.Head, p.Payload)

	var cc *obs.CellCounters
	var tl *obs.Timeline
	o := m.obs
	if o != nil {
		cc = o.Cell(int(c.id))
		tl = o.Timeline()
	}
	max := r.inj.MaxAttempts()
	for attempt := 1; attempt <= max; attempt++ {
		if attempt > 1 {
			// Ack timeout: charge the exponential backoff as simulated
			// time (the functional machine is untimed, so the modeled
			// delay is a counter, not a sleep).
			if cc != nil {
				cc.Retransmits.Add(1)
				cc.BackoffNanos.Add(r.inj.Backoff(attempt - 1))
				if tl != nil {
					tl.Instant(int(c.id), obs.TidMSC, "fault", "retransmit", o.NowUs())
				}
			}
			if attempt == 2 {
				// First retry: just yield — a single fault is overwhelmingly
				// the common case, and a sleep here would slow chaos suites.
				runtime.Gosched()
			} else {
				// Repeated faults on one packet (probability ~rate² and
				// beyond): real bounded exponential backoff. A Gosched loop
				// here busy-spins a full core per retransmit storm — fatal
				// when one host gang-schedules many tenant machines.
				d := time.Duration(1<<uint(attempt-3)) * time.Microsecond
				if d > 50*time.Microsecond {
					d = 50 * time.Microsecond
				}
				time.Sleep(d)
			}
		}
		if m.tnet.Transmit(p) {
			return true
		}
	}
	cf := &CellFault{Cell: c.id, Dst: p.Head.Dst, Op: p.Head.Op, Seq: p.Head.Seq, Attempts: max}
	m.tnet.DropHeld(*p)
	if s := m.san; s != nil {
		s.Drop(p.Head.San) // no copy was accepted, so none consumed it
	}
	r.abandon(p.Head.Src, p.Head.Dst, p.Head.Seq)
	r.record(cf)
	c.OS.interrupt(IntrCellFault)
	c.OS.fault(cf)
	if cc != nil {
		cc.CellFaults.Add(1)
		if tl != nil {
			tl.Instant(int(c.id), obs.TidMSC, "fault", "cell-fault", o.NowUs())
		}
	}
	return false
}

// admitVerdict classifies an arriving packet at the receive controller.
type admitVerdict uint8

const (
	admitFresh  admitVerdict = iota // process normally
	admitDup                        // already applied: ack, do nothing
	admitReject                     // damaged: drop, force retransmit
)

// admit runs the receive-side reliable-delivery checks on cell c:
// checksum first (a damaged packet must not touch the dedup window),
// then the per-link sequence dedup.
func (r *relay) admit(c *Cell, p *tnet.Packet) admitVerdict {
	o := r.m.obs
	if p.Head.Sum != packetSum(&p.Head, p.Payload) {
		if o != nil {
			o.Cell(int(c.id)).CorruptDetected.Add(1)
			if tl := o.Timeline(); tl != nil {
				tl.Instant(int(c.id), obs.TidMSC, "fault", "corrupt-drop", o.NowUs())
			}
		}
		return admitReject
	}
	link := &r.links[int(p.Head.Src)*r.cells+int(p.Head.Dst)]
	link.mu.Lock()
	dup := link.see(p.Head.Seq)
	link.mu.Unlock()
	if dup {
		if o != nil {
			o.Cell(int(c.id)).Dedups.Add(1)
			if tl := o.Timeline(); tl != nil {
				tl.Instant(int(c.id), obs.TidMSC, "fault", "dedup", o.NowUs())
			}
		}
		return admitDup
	}
	return admitFresh
}

func (r *relay) record(err error) {
	r.mu.Lock()
	r.faults = append(r.faults, err)
	r.mu.Unlock()
}

// broadcastFault records n failed B-net snoops of a broadcast
// originated by c (cells whose bus-level retries all failed).
func (m *Machine) broadcastFault(c *Cell, n int) {
	r := m.rel
	if r == nil || n == 0 {
		return
	}
	err := fmt.Errorf("machine: cell %d: broadcast undeliverable to %d cells after %d attempts",
		c.id, n, r.inj.MaxAttempts())
	r.record(err)
	c.OS.interrupt(IntrCellFault)
	c.OS.fault(err)
	if o := m.obs; o != nil {
		o.Cell(int(c.id)).CellFaults.Add(int64(n))
		if tl := o.Timeline(); tl != nil {
			tl.Instant(int(c.id), obs.TidMSC, "fault", "cell-fault", o.NowUs())
		}
	}
}

// FaultErr reports the first transfer abandoned under the fault plan's
// retry budget, or nil when the machine ran without a plan or every
// transfer was eventually delivered. Check it after Run, like
// SanitizeErr.
func (m *Machine) FaultErr() error {
	if m.rel == nil {
		return nil
	}
	m.rel.mu.Lock()
	defer m.rel.mu.Unlock()
	if len(m.rel.faults) == 0 {
		return nil
	}
	return m.rel.faults[0]
}

// CellFaultErrs returns a copy of every retry-budget exhaustion
// recorded under the fault plan.
func (m *Machine) CellFaultErrs() []error {
	if m.rel == nil {
		return nil
	}
	m.rel.mu.Lock()
	defer m.rel.mu.Unlock()
	return append([]error(nil), m.rel.faults...)
}

// FaultStats reports the fault injector's decision counters; zero when
// the machine runs without a plan.
func (m *Machine) FaultStats() fault.Stats {
	if m.rel == nil {
		return fault.Stats{}
	}
	return m.rel.inj.Stats()
}

// DrainInvariantErr checks the post-Run drain invariant: every
// sanitizer token was consumed exactly once (none left parked, no hook
// run under a consumed one), every per-link dedup window has collapsed
// into its contiguous watermark (seen empty), no abandoned holes
// remain, and the atomic result-replay cache respects its bound. Nil when the invariant holds — including trivially, on an
// unsanitized machine without a fault plan. Layers built on the MSC+
// (the PGAS aggregator in particular) call this from their quiesce
// tests.
func (m *Machine) DrainInvariantErr() error {
	if s := m.san; s != nil {
		if err := s.TokenErr(); err != nil {
			return err
		}
	}
	if m.rel == nil {
		return nil
	}
	for i := range m.rel.links {
		l := &m.rel.links[i]
		l.mu.Lock()
		seen, abandoned, results := len(l.seen), len(l.abandoned), len(l.results)
		l.mu.Unlock()
		src, dst := i/m.rel.cells, i%m.rel.cells
		if seen != 0 {
			return fmt.Errorf("link %d->%d: %d seen entries leaked after drain", src, dst, seen)
		}
		if abandoned != 0 {
			return fmt.Errorf("link %d->%d: %d abandoned entries not reconciled", src, dst, abandoned)
		}
		if results > atomicReplayWindow {
			return fmt.Errorf("link %d->%d: replay cache holds %d results, bound is %d",
				src, dst, results, atomicReplayWindow)
		}
	}
	return nil
}
