package machine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// ringLinkCap is the fast-path depth of each inter-shard wire link, in
// packets, and how many packets a shard's DrainInbox takes per lock
// into its receive buffer. Like the MSC+ queue ring it models a small
// on-chip FIFO: a backlog past it grows the link's buffer rather than
// blocking the producer.
const ringLinkCap = 256

// workerPool is the machine's delivery engine. Each cell is pinned to
// the worker numbered id mod W, which is the single consumer of that
// cell's MSC+ command rings and of the wire links addressed to its
// shard — the consumer half of every SPSC pair — so a 4096-cell
// machine runs on a few workers instead of 4096 parked receivers.
type workerPool struct {
	m       *Machine
	workers []*worker

	// foldAt indexes the open combining folds (Config.Combining) of
	// every worker by key; each fold is emitted by the worker that
	// opened it.
	foldMu sync.Mutex
	foldAt map[foldKey]*fold
}

type worker struct {
	m     *Machine
	shard int

	mu     sync.Mutex
	cond   *sync.Cond
	active []topology.CellID // cells with a rung doorbell, in ring order
	spare  []topology.CellID // swap buffer so draining never holds mu
	parked bool
	closed bool

	// inboxKick is the wire's doorbell: a producing shard sets it once
	// per Flush that published onto one of this shard's links. Checked
	// lock-free at the top of every loop pass and before parking.
	inboxKick atomic.Bool

	// folds are the open combining folds this worker opened and will
	// emit.
	folds []*fold
}

func newWorkerPool(m *Machine, shards int) *workerPool {
	p := &workerPool{m: m, workers: make([]*worker, shards), foldAt: make(map[foldKey]*fold)}
	for i := range p.workers {
		w := &worker{m: m, shard: i}
		w.cond = sync.NewCond(&w.mu)
		p.workers[i] = w
	}
	return p
}

func (p *workerPool) shards() int { return len(p.workers) }

// wake is the tnet wire's cross-shard doorbell (SetRingWire callback).
// The fast path is one atomic load; the lock is taken only to catch a
// parked worker.
func (p *workerPool) wake(shard int) {
	w := p.workers[shard]
	if w.inboxKick.Load() {
		return // doorbell already rung and not yet consumed
	}
	w.inboxKick.Store(true)
	w.mu.Lock()
	if w.parked {
		w.cond.Signal()
	}
	w.mu.Unlock()
}

func (p *workerPool) start(wg *sync.WaitGroup) {
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run()
		}(w)
	}
}

func (p *workerPool) close() {
	for _, w := range p.workers {
		w.mu.Lock()
		w.closed = true
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// reopen rearms a closed pool so Open can start a fresh set of worker
// goroutines. Only legal after close and the workers' exit: the
// doorbells are necessarily quiet by then.
func (p *workerPool) reopen() {
	for _, w := range p.workers {
		w.mu.Lock()
		w.closed = false
		w.parked = false
		w.mu.Unlock()
	}
}

// notifyCell is the MSC+ doorbell: a producer pushed a command into
// c's rings. The dirty bit collapses any number of pushes into one
// activation; the worker clears it before draining, so a push that
// races the drain either lands in the ring in time or re-rings the
// bell.
func (m *Machine) notifyCell(c *Cell) {
	if c.dirty.Load() || !c.dirty.CompareAndSwap(false, true) {
		return // already scheduled
	}
	w := m.pool.workers[c.shard]
	w.mu.Lock()
	w.active = append(w.active, c.id)
	if w.parked {
		w.cond.Signal()
	}
	w.mu.Unlock()
}

// run is one delivery worker's loop: drain the shard's wire inbox,
// swap out the doorbell list, drain each rung cell's command rings,
// emit the pass's combining folds, and park only when both doorbells
// are quiet and no fold is open.
func (w *worker) run() {
	m := w.m
	held := false // the open folds have already had their yield
	for {
		did := 0
		if w.inboxKick.Load() {
			// Clear before draining: packets published after the clear
			// re-ring the bell, packets published before it are caught by
			// this drain.
			w.inboxKick.Store(false)
			did += m.tnet.DrainInbox(w.shard, 0)
		}

		w.mu.Lock()
		batch := w.active
		w.active = w.spare[:0]
		closed := w.closed
		w.mu.Unlock()
		for _, id := range batch {
			did += m.drainCell(m.cells[id])
		}
		w.spare = batch // recycle the slice for the next swap

		if len(w.folds) > 0 {
			if !held {
				// Hold the folds open for one yield and one more pass, so
				// requests from other cells can join.
				held = true
				runtime.Gosched()
				continue
			}
			w.emit()
		}
		held = false
		if did > 0 {
			continue
		}
		if closed && w.quiet() {
			return
		}
		w.mu.Lock()
		for !w.closed && len(w.active) == 0 && !w.inboxKick.Load() {
			w.parked = true
			w.cond.Wait()
			w.parked = false
		}
		w.mu.Unlock()
	}
}

// quiet reports whether both doorbells are idle; only then may a
// closed worker exit.
func (w *worker) quiet() bool {
	if w.inboxKick.Load() {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.active) == 0
}

// drainCell pops and executes c's pending commands. The dirty bit is
// cleared first, so producers racing this drain re-ring the doorbell;
// the post-drain Pending check catches commands that slipped in
// between the last pop and the clear-side race window closing.
func (m *Machine) drainCell(c *Cell) int {
	c.dirty.Store(false)
	var buf [drainBatch]msc.Command
	done := 0
	for done < 4*drainBatch { // bounded pass: round-robin fairness
		n := c.MSC.TryNextBatch(buf[:])
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			m.process(c, &buf[i])
		}
		// Publish the pass's cross-shard packets, then uncount the
		// batch: the partition's quiesce counter must never read zero
		// while a command is still executing or its packets are still
		// staged (work a command spawns is counted before its own
		// decrement lands).
		m.tnet.Flush(c.shard)
		c.part.q.add(-int64(n))
		done += n
	}
	if c.MSC.Pending() > 0 {
		m.notifyCell(c) // left work behind (bound hit or racing push)
	}
	return done
}
