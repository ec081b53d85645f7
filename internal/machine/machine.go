// Package machine assembles the AP1000+ functional simulator: cells
// (SuperSPARC context, MSC+ message controller, MC memory controller,
// DRAM), the three networks (T-net, B-net, S-net), and the SPMD
// runner that executes one user goroutine per cell, exactly as the
// paper's Figure 4/Figure 5 configuration wires the hardware.
//
// The machine is functional, not cycle-timed: data really moves,
// flags really increment, queues really overflow. Timing lives in
// the trace-driven MLSim (package mlsim), following the paper's own
// methodology of separating execution from timing simulation.
package machine

import (
	"fmt"
	"runtime"
	"sync"

	"ap1000plus/internal/apsan"
	"ap1000plus/internal/bnet"
	"ap1000plus/internal/fault"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/snet"
	"ap1000plus/internal/tnet"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// Spec are the Table 1 machine specifications.
type Spec struct {
	Processor       string
	ClockMHz        int
	MFLOPSPerCell   int
	MemoryPerCellMB []int
	CacheKB         int
	CachePolicy     string
	MinCells        int
	MaxCells        int
	PeakGFLOPSAtMin float64
	PeakGFLOPSAtMax float64
}

// Table1 returns the published AP1000+ specifications.
func Table1() Spec {
	return Spec{
		Processor:       "SuperSPARC",
		ClockMHz:        50,
		MFLOPSPerCell:   50,
		MemoryPerCellMB: []int{16, 64},
		CacheKB:         36,
		CachePolicy:     "write-through",
		MinCells:        4,
		MaxCells:        1024,
		PeakGFLOPSAtMin: 0.2,
		PeakGFLOPSAtMax: 51.2,
	}
}

// Config parameterizes a machine instance.
type Config struct {
	// Width and Height give the torus dimensions (4..4096 cells; the
	// shipped hardware stopped at 1024, the simulator admits 4x that
	// for weak-scaling studies).
	Width, Height int
	// MemoryPerCell is DRAM per cell in bytes (default 16 MB).
	MemoryPerCell int64
	// QueueWords sizes the MSC+ queues (default 64, the hardware's);
	// it must pass msc.CheckQueueWords.
	QueueWords int
	// TraceApp, when non-empty, enables trace recording under this
	// application name.
	TraceApp string
	// Sanitize enables the apsan communication race detector: every
	// DMA access is checked against a happens-before model of flags,
	// barriers, acknowledgements and message receipt. Costs time and
	// memory; near-zero cost when off.
	Sanitize bool
	// Observe enables the obs counter layer: per-cell atomic counters
	// for issues, bytes, spills, interrupts and stall time, snapshot
	// via Metrics. Zero-cost (one nil check per hook) when off.
	Observe bool
	// Timeline, when non-nil, additionally collects Chrome
	// trace-event/Perfetto slices and instants for every cell CPU and
	// MSC+ controller. Implies Observe.
	Timeline *obs.Timeline
	// Fault, when non-nil, injects deterministic seeded wire faults
	// (drop/duplicate/reorder/delay/corrupt) into the T-net and B-net
	// and arms the MSC+'s reliable-delivery path: sequence numbers,
	// end-to-end checksums, retransmit with exponential backoff and a
	// bounded retry budget, receive-side dedup. Implies Observe (the
	// fault counters ride the obs layer); the wire is the same link
	// matrix every other machine uses. Nil costs one pointer check per
	// send — the wire is trusted, exactly the pre-fault machine.
	Fault *fault.Plan
	// Combining arms the T-net's in-network combining of same-address
	// combinable remote atomics (fetch-add, add, min, max): requests
	// merge at switch-level combining stations on the way to the owner
	// and the fetch results de-combine on the way down. Purely a
	// message-count optimization — combined and uncombined runs return
	// the same results.
	Combining bool
	// Workers sets the delivery-worker count (cell id mod Workers owns
	// a cell); 0 picks min(GOMAXPROCS, cells), or one worker per cell
	// under Combining, whose stations absorb only requests that are in
	// flight on different workers at once.
	Workers int
	// Partitions splits the machine into this many equal contiguous
	// cell partitions — the paper's partitioned multi-user operation.
	// Each partition is a gang-scheduling unit with disjoint T-net
	// routing (a command aimed across the boundary is a page fault), a
	// B-net segment scoped to the sender's partition, its own S-net
	// barrier domain, and an independent quiesce/drain domain so
	// concurrent jobs never wait on each other. 0 (or 1) runs the
	// classic single-partition machine.
	Partitions int
}

func (c *Config) fill() error {
	if c.MemoryPerCell == 0 {
		c.MemoryPerCell = 16 << 20
	}
	if c.MemoryPerCell < 0 {
		return fmt.Errorf("machine: negative memory size")
	}
	if c.QueueWords == 0 {
		c.QueueWords = msc.QueueWords
	}
	if err := msc.CheckQueueWords(c.QueueWords); err != nil {
		return fmt.Errorf("machine: QueueWords: %w", err)
	}
	if c.Workers < 0 {
		return fmt.Errorf("machine: negative worker count %d", c.Workers)
	}
	if c.Partitions < 0 {
		return fmt.Errorf("machine: negative partition count %d", c.Partitions)
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	if c.Partitions > 1 && c.Sanitize {
		return fmt.Errorf("machine: Sanitize requires a single partition (apsan models the all-cells barrier)")
	}
	return nil
}

// Machine is one AP1000+ system instance.
type Machine struct {
	cfg   Config
	torus *topology.Torus
	tnet  *tnet.Network
	bnet  *bnet.Network
	snet  *snet.Domains
	cells []*Cell

	// parts are the machine's gang-scheduling units; partOf maps each
	// cell to its partition index. Always at least one partition.
	parts  []*Partition
	partOf []int32

	// lifeMu guards the Open/Close lifecycle; ctlWG tracks the
	// delivery workers of the current epoch.
	lifeMu  sync.Mutex
	opened  bool
	everRan bool
	ctlWG   sync.WaitGroup

	ts   *trace.TraceSet
	san  *apsan.Sanitizer
	obs  *obs.Observer
	rel  *relay         // reliable delivery; nil without Config.Fault
	comb *tnet.Combiner // in-network combining; nil without Config.Combining
	pool *workerPool    // sharded delivery workers, the one engine

	groupMu sync.Mutex
	groups  []*topology.Group // index = trace.GroupID
}

// New builds a machine. Every cell's controllers are attached but not
// yet running; Run starts them.
func New(cfg Config) (*Machine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	torus, err := topology.NewTorus(cfg.Width, cfg.Height)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		torus: torus,
		tnet:  tnet.New(torus),
		bnet:  bnet.New(torus.Cells()),
	}
	if err := m.buildPartitions(torus, cfg.Partitions); err != nil {
		return nil, err
	}
	m.groups = []*topology.Group{topology.AllCells(torus)}
	if cfg.Combining {
		m.comb = tnet.NewCombiner(torus.Cells())
	}
	if cfg.TraceApp != "" {
		m.ts = trace.New(cfg.TraceApp, cfg.Width, cfg.Height)
	}
	if cfg.Sanitize {
		m.resetSanitizer()
	}
	if cfg.Observe || cfg.Timeline != nil || cfg.Fault != nil {
		m.obs = obs.NewObserver(torus.Cells(), cfg.Timeline)
		if tl := cfg.Timeline; tl != nil {
			for id := 0; id < torus.Cells(); id++ {
				tl.Process(id, fmt.Sprintf("cell %d", id))
				tl.Thread(id, obs.TidCPU, "cpu")
				tl.Thread(id, obs.TidMSC, "msc+")
			}
		}
	}
	if cfg.Fault != nil {
		// Class IDs match msc.Op values; broadcasts ride the extra
		// "bcast" class.
		inj, err := cfg.Fault.Build(torus.Cells(), append(msc.OpNames(), "bcast"))
		if err != nil {
			return nil, err
		}
		m.rel = newRelay(m, inj)
		m.tnet.SetFault(inj)
		m.bnet.SetFault(inj, inj.ClassID("bcast"), inj.MaxAttempts())
	}
	m.pool = newWorkerPool(m, ringShards(cfg, torus.Cells()))
	for id := 0; id < torus.Cells(); id++ {
		c, err := newCell(m, topology.CellID(id))
		if err != nil {
			return nil, err
		}
		m.cells = append(m.cells, c)
		m.tnet.Attach(c.id, c.receive)
		m.bnet.Attach(c.id, c.receiveBroadcast)
	}
	if !cfg.Sanitize && !cfg.Combining {
		// The one fork: cross-shard packets ride links unless a feature
		// needs inline delivery. The sanitizer's logical clocks assume
		// one cell's packets deliver serially, and combining runs one
		// worker per cell, for which a shard-pair link matrix would be
		// cells² rings.
		m.tnet.SetRingWire(m.pool.shards(), ringLinkCap, m.pool.wake, false, m.trackWire)
	}
	return m, nil
}

// trackWire charges packets on a link to their destination
// partition's quiesce counter: +run when a flush publishes a run of
// them, -run once their handlers have returned.
func (m *Machine) trackWire(dst topology.CellID, delta int64) {
	m.parts[m.partOf[dst]].q.add(delta)
}

// ringShards picks the delivery-worker count. Combining stations
// absorb only requests that meet while several submitters are in
// flight, so by default it gets one worker per cell; an explicit
// Workers is honoured and only lowers how much combines.
func ringShards(cfg Config, cells int) int {
	w := cfg.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if cfg.Combining {
			w = cells
		}
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Cells reports the cell count.
func (m *Machine) Cells() int { return m.torus.Cells() }

// Torus exposes the machine geometry.
func (m *Machine) Torus() *topology.Torus { return m.torus }

// Cell returns cell id.
func (m *Machine) Cell(id topology.CellID) *Cell { return m.cells[id] }

// TNetStats reports point-to-point network statistics.
func (m *Machine) TNetStats() tnet.Stats { return m.tnet.Stats() }

// BNetStats reports broadcast network statistics.
func (m *Machine) BNetStats() bnet.Stats { return m.bnet.Stats() }

// Barriers reports how many hardware barriers completed, summed over
// every partition's S-net domain.
func (m *Machine) Barriers() int64 { return m.snet.Count() }

// Observer returns the observability context, or nil when neither
// Config.Observe nor Config.Timeline was set.
func (m *Machine) Observer() *obs.Observer { return m.obs }

// Sanitizer returns the race detector, or nil when Config.Sanitize
// was off.
func (m *Machine) Sanitizer() *apsan.Sanitizer { return m.san }

// SanitizeErr reports the first detected communication race, or nil
// when the machine is unsanitized or the run was clean. Check it
// after Run.
func (m *Machine) SanitizeErr() error {
	if m.san == nil {
		return nil
	}
	return m.san.Err()
}

// DefineGroup registers a cell group machine-wide and returns its
// trace GroupID. Groups must be defined before Run (SPMD prologue).
func (m *Machine) DefineGroup(g *topology.Group) trace.GroupID {
	m.groupMu.Lock()
	defer m.groupMu.Unlock()
	m.groups = append(m.groups, g)
	id := trace.GroupID(len(m.groups) - 1)
	if m.ts != nil {
		if got := m.ts.AddGroup(g.Members()); got != id {
			panic("machine: trace group id out of sync")
		}
	}
	return id
}

// Group resolves a GroupID.
func (m *Machine) Group(id trace.GroupID) *topology.Group {
	m.groupMu.Lock()
	defer m.groupMu.Unlock()
	return m.groups[id]
}

// Trace returns the recorded trace after Run; nil when tracing was
// not enabled.
func (m *Machine) Trace() *trace.TraceSet {
	if m.ts == nil {
		return nil
	}
	for id, c := range m.cells {
		m.ts.PE[id] = c.rec.Events()
	}
	return m.ts
}

// Run executes program SPMD: one goroutine per cell, plus the
// sharded delivery workers. It returns after every cell's program
// finished AND all in-flight communication drained, mirroring a job
// completing on the machine. On a partitioned machine every partition runs the program
// concurrently as its own job. Sequential Run calls on one machine
// are legal: job-scoped cell state resets between jobs (memory
// segments persist — see RunJob). The first program error (or panic,
// converted) is returned; faults taken by the hardware are left in
// each cell's OS log.
func (m *Machine) Run(program func(c *Cell) error) error {
	if err := m.Open(); err != nil {
		return err
	}
	errs := make([]error, len(m.parts))
	var wg sync.WaitGroup
	for i := range m.parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.RunJob(i, program)
		}(i)
	}
	wg.Wait()
	closeErr := m.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return closeErr
}
