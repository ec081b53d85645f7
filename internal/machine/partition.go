package machine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ap1000plus/internal/apsan"
	"ap1000plus/internal/snet"
	"ap1000plus/internal/topology"
)

// quiesce is a partition's completion doorbell: work counts commands
// pushed but not fully processed plus packets enqueued on a link but
// not yet delivered, and wait parks the draining goroutine until the
// count hits zero — no busy-spin, so a host running many tenant
// machines pays ~no CPU for a partition that is merely draining.
//
// No-missed-wakeup argument: a waiter that observed work != 0
// registers in waiters before blocking in cond.Wait (under mu). The
// decrement that takes work to zero then reads waiters — the
// sequentially consistent atomics order the waiter's registration
// before that read, or the waiter's re-check of work after the
// decrement — and its Lock/Broadcast cannot run before the waiter is
// parked, because the waiter holds mu from registration until Wait
// releases it inside the park.
type quiesce struct {
	work    atomic.Int64
	waiters atomic.Int32
	mu      sync.Mutex
	cond    *sync.Cond
}

func (q *quiesce) add(n int64) {
	if q.work.Add(n) == 0 && q.waiters.Load() != 0 {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}

func (q *quiesce) wait() {
	if q.work.Load() == 0 {
		return
	}
	q.mu.Lock()
	q.waiters.Add(1)
	for q.work.Load() != 0 {
		q.cond.Wait()
	}
	q.waiters.Add(-1)
	q.mu.Unlock()
}

// Partition is one gang-scheduling unit of a partitioned machine: a
// contiguous, disjoint set of cells with isolated T-net routing, its
// own B-net segment and S-net barrier domain, and an independent
// quiesce domain. Jobs are placed on whole partitions (RunJob); one
// job occupies a partition at a time.
type Partition struct {
	m     *Machine
	index int
	group *topology.Group
	base  int // first cell id — partitions are contiguous
	n     int

	q    quiesce
	busy atomic.Bool
	jobs atomic.Int64 // completed jobs, drives the job-state reset
}

// Index reports the partition's index on its machine.
func (p *Partition) Index() int { return p.index }

// Size reports the partition's cell count.
func (p *Partition) Size() int { return p.n }

// Group returns the partition's cell group (for ranks and members).
func (p *Partition) Group() *topology.Group { return p.group }

// Jobs reports how many jobs have completed on the partition.
func (p *Partition) Jobs() int64 { return p.jobs.Load() }

// buildPartitions carves the torus into k contiguous partitions and
// the partition-scoped S-net domains. Runs before cells are built so
// newCell can bind each cell to its partition.
func (m *Machine) buildPartitions(torus *topology.Torus, k int) error {
	groups, err := topology.Partition(torus, k)
	if err != nil {
		return err
	}
	m.partOf = make([]int32, torus.Cells())
	sizes := make([]int, k)
	for i, g := range groups {
		base := int(g.Members()[0])
		for _, id := range g.Members() {
			if int(id) < base {
				base = int(id)
			}
			m.partOf[id] = int32(i)
		}
		p := &Partition{m: m, index: i, group: g, base: base, n: g.Size()}
		p.q.cond = sync.NewCond(&p.q.mu)
		m.parts = append(m.parts, p)
		sizes[i] = g.Size()
	}
	m.snet = snet.NewDomains(m.partOf, sizes)
	if k > 1 {
		m.tnet.SetPartitions(m.partOf)
		m.bnet.SetPartitions(m.partOf)
	}
	return nil
}

// Partitions reports the number of partitions (at least 1).
func (m *Machine) Partitions() int { return len(m.parts) }

// Partition returns partition i.
func (m *Machine) Partition(i int) *Partition { return m.parts[i] }

// PartitionOf reports which partition a cell belongs to.
func (m *Machine) PartitionOf(id topology.CellID) int { return int(m.partOf[id]) }

// Open starts the machine's delivery workers without running a job,
// so a scheduler can gang-place jobs onto partitions with RunJob. Run
// is Open + one job per partition + Close. Reopening a machine that
// was closed after earlier jobs is legal: the MSC queues reopen and
// the workers restart.
func (m *Machine) Open() error {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	if m.opened {
		return fmt.Errorf("machine: Open of an already open machine")
	}
	if m.everRan {
		for _, c := range m.cells {
			c.MSC.Reopen()
		}
		m.pool.reopen()
		if m.cfg.Sanitize {
			m.resetSanitizer()
		}
	}
	m.pool.start(&m.ctlWG)
	m.opened = true
	return nil
}

// resetSanitizer builds the race detector, at New and for each fresh
// epoch: apsan's logical clocks and shadow DRAM describe one job's
// happens-before history, which ends at the previous Close's full
// drain.
func (m *Machine) resetSanitizer() {
	m.san = apsan.New(m.torus.Cells())
	m.san.OnReport = func(r apsan.Report) {
		m.cells[r.Access.Cell].OS.interrupt(IntrSanitizer)
	}
}

// Close stops the delivery workers once every partition is idle and
// waits for them to exit. It is an error to Close while a job is
// running. A closed machine can be opened again.
func (m *Machine) Close() error {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	if !m.opened {
		return fmt.Errorf("machine: Close of a closed machine")
	}
	for _, p := range m.parts {
		if p.busy.Load() {
			return fmt.Errorf("machine: Close with a job running on partition %d", p.index)
		}
	}
	for _, c := range m.cells {
		c.MSC.Close()
	}
	m.pool.close()
	m.ctlWG.Wait()
	m.opened = false
	m.everRan = true
	return nil
}

// RunJob executes program SPMD on one partition: one goroutine per
// partition cell. It returns after every cell's program finished AND
// the partition's in-flight communication drained. The machine must
// be Open; a partition runs one job at a time (gang occupancy) while
// different partitions run concurrently. Before the second and later
// jobs on a partition, job-scoped cell state resets (flags, comm
// registers, sinks, pending loads, broadcast inboxes, DSM hooks, OS
// logs); memory segments and MMU mappings persist for the machine's
// lifetime — the OS does not scrub DRAM between jobs, so each job
// allocates its own working set.
func (m *Machine) RunJob(part int, program func(c *Cell) error) error {
	if part < 0 || part >= len(m.parts) {
		return fmt.Errorf("machine: RunJob on partition %d of %d", part, len(m.parts))
	}
	m.lifeMu.Lock()
	opened := m.opened
	m.lifeMu.Unlock()
	if !opened {
		return fmt.Errorf("machine: RunJob on a closed machine (call Open first)")
	}
	p := m.parts[part]
	if !p.busy.CompareAndSwap(false, true) {
		return fmt.Errorf("machine: partition %d is already running a job", part)
	}
	defer p.busy.Store(false)
	if p.jobs.Load() > 0 {
		for _, c := range m.cells[p.base : p.base+p.n] {
			c.resetJob()
		}
	}

	errs := make([]error, p.n)
	var cpuWG sync.WaitGroup
	for i := 0; i < p.n; i++ {
		c := m.cells[p.base+i]
		cpuWG.Add(1)
		go func(i int, c *Cell) {
			defer cpuWG.Done()
			defer func() {
				if r := recover(); r != nil {
					buf := make([]byte, 8192)
					n := runtime.Stack(buf, false)
					errs[i] = fmt.Errorf("machine: cell %d panic: %v\n%s", c.id, r, buf[:n])
				}
			}()
			errs[i] = program(c)
		}(i, c)
	}
	cpuWG.Wait()

	// Drain: park on the partition's doorbell until all of its queued
	// and chained commands and its packets on links completed. Nothing
	// is left in the wire's reorder limbo: it never outlives the xmit
	// that filled it.
	p.q.wait()
	if m.rel != nil {
		// Quiescent: collapse the dedup holes left by abandoned
		// (retry-budget-exhausted) packets on the partition's links so
		// the per-link seen windows drain to empty instead of growing
		// for the rest of the run.
		m.rel.reconcileRange(p.base, p.base+p.n)
	}
	p.jobs.Add(1)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
