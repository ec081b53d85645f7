package machine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// TestDrainIdleCPUQuiet pins the park/wake drain: a goroutine blocked
// in the partition quiesce wait must burn (almost) no CPU while the
// counter is nonzero. The old implementation spun on runtime.Gosched,
// which pegged a core for the whole wait.
func TestDrainIdleCPUQuiet(t *testing.T) {
	m := newMachine(t, Config{})
	p := m.parts[0]
	p.q.add(1)
	done := make(chan struct{})
	go func() {
		p.q.wait()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park

	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	const window = 200 * time.Millisecond
	before := cpu()
	time.Sleep(window)
	used := cpu() - before
	// A busy-spin burns the full window on at least one core; a parked
	// waiter burns microseconds. Allow generous slack for the test
	// runtime itself.
	if used > window/2 {
		t.Errorf("drain wait burned %v CPU over a %v idle window", used, window)
	}

	p.q.add(-1)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not wake after counter hit zero")
	}
}

// ringSegs allocates one source and one destination buffer per cell.
// Allocation happens once per machine, before any job, so repeated
// jobs see identical addresses.
type ringSegs struct {
	src, dst   []*mem.Segment
	srcD, dstD [][]float64
}

func allocRingSegs(t *testing.T, m *Machine) *ringSegs {
	t.Helper()
	n := m.Cells()
	rs := &ringSegs{
		src: make([]*mem.Segment, n), dst: make([]*mem.Segment, n),
		srcD: make([][]float64, n), dstD: make([][]float64, n),
	}
	for id := 0; id < n; id++ {
		c := m.Cell(topology.CellID(id))
		var err error
		if rs.src[id], rs.srcD[id], err = c.AllocFloat64("ring-src", 8); err != nil {
			t.Fatal(err)
		}
		if rs.dst[id], rs.dstD[id], err = c.AllocFloat64("ring-dst", 8); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

// runRingJob runs one all-cells ring-PUT job: every cell fills its
// source buffer with fill+rank, PUTs it to the right neighbor's
// destination buffer, and waits for both flags. Flag IDs are allocated
// inside the job, so after a job reset every cell deterministically
// gets recv=1, send=2. Returns a snapshot of the received data and the
// per-cell flag-increment counts.
func runRingJob(t *testing.T, m *Machine, rs *ringSegs, fill float64) (data [][]float64, incs []int64) {
	t.Helper()
	n := m.Cells()
	err := m.Run(func(c *Cell) error {
		id := int(c.ID())
		rf := c.Flags.Alloc() // deterministically 1 on every cell
		sf := c.Flags.Alloc() // deterministically 2
		for i := range rs.srcD[id] {
			rs.srcD[id][i] = fill + float64(id) + float64(i)/16
		}
		right := (id + 1) % n
		c.PushUser(msc.Command{
			Op: msc.OpPut, Dst: topology.CellID(right),
			RAddr: rs.dst[right].Base(), LAddr: rs.src[id].Base(),
			RStride: mem.Contiguous(64), LStride: mem.Contiguous(64),
			SendFlag: sf, RecvFlag: mc.FlagID(1), // neighbor's recv flag
		})
		c.Flags.Wait(sf, 1)
		c.Flags.Wait(rf, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data = make([][]float64, n)
	incs = make([]int64, n)
	for id := 0; id < n; id++ {
		data[id] = append([]float64(nil), rs.dstD[id]...)
		incs[id] = m.Cell(topology.CellID(id)).Flags.Increments()
	}
	return data, incs
}

func diffRuns(t *testing.T, label string, gotD, wantD [][]float64, gotI, wantI []int64) {
	t.Helper()
	for id := range wantD {
		for i := range wantD[id] {
			if gotD[id][i] != wantD[id][i] {
				t.Errorf("%s: cell %d data[%d] = %v, want %v", label, id, i, gotD[id][i], wantD[id][i])
			}
		}
		if gotI[id] != wantI[id] {
			t.Errorf("%s: cell %d flag increments = %d, want %d", label, id, gotI[id], wantI[id])
		}
	}
}

// TestSequentialRunBitIdentical pins the restartable-machine contract:
// two back-to-back jobs on one machine produce results bit-identical
// to two fresh machines each running one job. Job-scoped state (flags,
// cregs, loads) resets between jobs; memory and allocator state
// persist, which the shared pre-allocated segments make visible.
func TestSequentialRunBitIdentical(t *testing.T) {
	cfg := Config{}
	m := newMachine(t, cfg)
	rs := allocRingSegs(t, m)
	seq1D, seq1I := runRingJob(t, m, rs, 3)
	seq2D, seq2I := runRingJob(t, m, rs, 5)

	mA := newMachine(t, cfg)
	rsA := allocRingSegs(t, mA)
	oneD, oneI := runRingJob(t, mA, rsA, 3)
	mB := newMachine(t, cfg)
	rsB := allocRingSegs(t, mB)
	twoD, twoI := runRingJob(t, mB, rsB, 5)

	diffRuns(t, "job 1", seq1D, oneD, seq1I, oneI)
	diffRuns(t, "job 2", seq2D, twoD, seq2I, twoI)
}

// TestSequentialRunBitIdenticalUnderFault is the same pin under a
// seeded fault plan: fates are a pure function of (seed, stream,
// index), and job reset restarts every stream, so a reused machine
// replays exactly the fate sequence a fresh machine sees.
func TestSequentialRunBitIdenticalUnderFault(t *testing.T) {
	plan := mustPlan(t, "drop=0.05,dup=0.03,seed=11")
	m := newMachine(t, Config{Fault: plan})
	rs := allocRingSegs(t, m)
	seq1D, seq1I := runRingJob(t, m, rs, 3)
	seq2D, seq2I := runRingJob(t, m, rs, 5)

	mA := newMachine(t, Config{Fault: plan.Clone()})
	rsA := allocRingSegs(t, mA)
	oneD, oneI := runRingJob(t, mA, rsA, 3)
	mB := newMachine(t, Config{Fault: plan.Clone()})
	rsB := allocRingSegs(t, mB)
	twoD, twoI := runRingJob(t, mB, rsB, 5)

	diffRuns(t, "fault job 1", seq1D, oneD, seq1I, oneI)
	diffRuns(t, "fault job 2", seq2D, twoD, seq2I, twoI)
}

// partRingProgram is a one-partition ring-PUT job: every cell fills
// its source buffer with fill+rank, PUTs it to its right neighbour in
// the partition, waits for both flags and meets the partition's
// hardware barrier. Each cell then holds fill+left in its destination.
func partRingProgram(p *Partition, rs *ringSegs, fill float64) func(c *Cell) error {
	base, size := p.base, p.n
	return func(c *Cell) error {
		id := int(c.ID())
		rank := id - base
		rf := c.Flags.Alloc()
		sf := c.Flags.Alloc()
		for i := range rs.srcD[id] {
			rs.srcD[id][i] = fill + float64(rank)
		}
		right := base + (rank+1)%size // stay inside the partition
		c.PushUser(msc.Command{
			Op: msc.OpPut, Dst: topology.CellID(right),
			RAddr: rs.dst[right].Base(), LAddr: rs.src[id].Base(),
			RStride: mem.Contiguous(64), LStride: mem.Contiguous(64),
			SendFlag: sf, RecvFlag: mc.FlagID(1),
		})
		c.Flags.Wait(sf, 1)
		c.Flags.Wait(rf, 1)
		c.HWBarrier()
		return nil
	}
}

// checkPartRing reports every destination word of partition p that
// does not hold what partRingProgram(p, rs, fill) leaves there.
func checkPartRing(t *testing.T, p *Partition, rs *ringSegs, fill float64) {
	t.Helper()
	for rank := 0; rank < p.n; rank++ {
		id := p.base + rank
		want := fill + float64((rank+p.n-1)%p.n)
		for i, v := range rs.dstD[id] {
			if v != want {
				t.Errorf("partition %d cell %d dst[%d] = %v, want %v", p.index, id, i, v, want)
			}
		}
	}
}

// TestConcurrentPartitionJobs gangs four jobs onto four partitions of
// a 4x4 machine at once: each partition runs its own ring of PUTs and
// its own hardware barrier. Every partition's data must come out
// right, and each barrier domain must have completed exactly once —
// proof the S-net domains are independent.
func TestConcurrentPartitionJobs(t *testing.T) {
	m := newMachine(t, Config{Width: 4, Height: 4, Partitions: 4})
	rs := allocRingSegs(t, m)
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, m.Partitions())
	for part := 0; part < m.Partitions(); part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			errs[part] = m.RunJob(part, partRingProgram(m.Partition(part), rs, float64(100*(part+1))))
		}(part)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for part, err := range errs {
		if err != nil {
			t.Fatalf("partition %d: %v", part, err)
		}
	}
	for part := 0; part < m.Partitions(); part++ {
		p := m.Partition(part)
		checkPartRing(t, p, rs, float64(100*(part+1)))
		if got := m.snet.Domain(part).Count(); got != 1 {
			t.Errorf("partition %d barrier-domain count = %d, want 1", part, got)
		}
		if got := p.Jobs(); got != 1 {
			t.Errorf("partition %d jobs = %d, want 1", part, got)
		}
	}
}

// TestRunJobErrors pins the scheduler-facing error surface: bad
// partition index, RunJob before Open, and a double-booked partition.
func TestRunJobErrors(t *testing.T) {
	m := newMachine(t, Config{Partitions: 2})
	if err := m.RunJob(0, func(c *Cell) error { return nil }); err == nil {
		t.Fatal("RunJob before Open must fail")
	}
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	if err := m.RunJob(5, func(c *Cell) error { return nil }); err == nil {
		t.Fatal("out-of-range partition must fail")
	}
	// Double-book partition 0: hold a job open with a flag wait, then
	// try to start a second.
	started := make(chan struct{})
	release := make(chan struct{})
	jobErr := make(chan error, 1)
	go func() {
		jobErr <- m.RunJob(0, func(c *Cell) error {
			if c.ID() == 0 {
				close(started)
				<-release
			}
			return nil
		})
	}()
	<-started
	if err := m.RunJob(0, func(c *Cell) error { return nil }); err == nil {
		t.Error("double-booked partition must fail")
	}
	close(release)
	if err := <-jobErr; err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.RunJob(1, func(c *Cell) error { return nil }); err == nil {
		t.Fatal("RunJob after Close must fail")
	}
}

// TestPartitionConfigValidation pins the Config.fill rules around
// partitioning.
func TestPartitionConfigValidation(t *testing.T) {
	if _, err := New(Config{Width: 2, Height: 2, MemoryPerCell: 1 << 20, Partitions: -1}); err == nil {
		t.Error("negative partition count must fail")
	}
	if _, err := New(Config{Width: 2, Height: 2, MemoryPerCell: 1 << 20, Partitions: 2, Sanitize: true}); err != nil {
		t.Errorf("sanitize with multiple partitions: %v", err)
	}
	if _, err := New(Config{Width: 4, Height: 4, MemoryPerCell: 1 << 20, Partitions: 2, Combining: true}); err != nil {
		t.Errorf("combining with multiple partitions: %v", err)
	}
	m, err := New(Config{Width: 4, Height: 2, MemoryPerCell: 1 << 20, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitions() != 4 {
		t.Fatalf("partitions = %d", m.Partitions())
	}
	seen := map[int]int{}
	for id := 0; id < m.Cells(); id++ {
		seen[m.PartitionOf(topology.CellID(id))]++
	}
	for part, n := range seen {
		if n != 2 {
			t.Errorf("partition %d has %d cells, want 2", part, n)
		}
	}
	for i := 0; i < 4; i++ {
		if got := m.Partition(i).Size(); got != 2 {
			t.Errorf("Partition(%d).Size() = %d", i, got)
		}
	}
}

// settledGoroutines waits until runtime.NumGoroutine reads want, or
// returns what it reads after a few seconds: a goroutine that has
// signalled its exit can still be counted for a moment. want < 0 waits
// for the count to hold still for 20 ms instead.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	last, still := -1, 0
	for {
		n := runtime.NumGoroutine()
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
		if n == want || (want < 0 && still == 20) || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCPUGoroutinesPersistAcrossJobs pins the cells' CPU goroutines to
// the Open epoch: the first job on a partition starts one goroutine per
// cell, the next 199 jobs start none, and Close takes the count back to
// what it was before Open; so does Machine.Run. A machine reopened
// after that runs jobs whose memory matches a fresh machine's.
func TestCPUGoroutinesPersistAcrossJobs(t *testing.T) {
	cfg := Config{Width: 4, Height: 4, Partitions: 4}
	m := newMachine(t, cfg)
	rs := allocRingSegs(t, m)
	base := settledGoroutines(-1)
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	opened := runtime.NumGoroutine()
	const jobs = 200
	var live int
	for j := 0; j < jobs; j++ {
		part := j % m.Partitions()
		p := m.Partition(part)
		if err := m.RunJob(part, partRingProgram(p, rs, float64(j))); err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		checkPartRing(t, p, rs, float64(j))
		switch n := runtime.NumGoroutine(); {
		case j == m.Partitions()-1:
			if want := opened + m.Cells(); n != want {
				t.Fatalf("after the first job of every partition: %d goroutines, want %d (one CPU per cell)", n, want)
			}
			live = n
		case j >= m.Partitions() && n != live:
			t.Fatalf("job %d: %d goroutines, want %d: a later job started or lost a CPU goroutine", j, n, live)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(base); n != base {
		t.Fatalf("after Close: %d goroutines, want the pre-Open %d", n, base)
	}

	// Machine.Run is a one-job epoch: its Close stops the CPU
	// goroutines, and the epoch after it starts fresh ones that compute
	// what a fresh machine computes.
	var ran atomic.Int64
	if err := m.Run(func(c *Cell) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != int64(m.Cells()) {
		t.Fatalf("Run ran on %d cells, want %d", got, m.Cells())
	}
	if n := settledGoroutines(base); n != base {
		t.Fatalf("after Run: %d goroutines, want %d", n, base)
	}
	runAll := func(m *Machine, rs *ringSegs) {
		t.Helper()
		if err := m.Open(); err != nil {
			t.Fatal(err)
		}
		for part := 0; part < m.Partitions(); part++ {
			if err := m.RunJob(part, partRingProgram(m.Partition(part), rs, 7)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runAll(m, rs)
	fresh := newMachine(t, cfg)
	freshRS := allocRingSegs(t, fresh)
	runAll(fresh, freshRS)
	for id := range rs.dstD {
		for i := range rs.dstD[id] {
			if got, want := rs.dstD[id][i], freshRS.dstD[id][i]; got != want {
				t.Errorf("reopened cell %d dst[%d] = %v, fresh machine %v", id, i, got, want)
			}
		}
		c, fc := m.Cell(topology.CellID(id)), fresh.Cell(topology.CellID(id))
		if got, want := c.Flags.Increments(), fc.Flags.Increments(); got != want {
			t.Errorf("reopened cell %d flag increments = %d, fresh machine %d", id, got, want)
		}
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("after the second Close: %d goroutines, want %d", n, base)
	}
}

// TestRunJobProgramExits pins the two ways a program leaves its CPU
// goroutine early: a panic becomes the job's error, and
// runtime.Goexit (t.FailNow's exit) ends the cell's part with no
// error. Either way RunJob returns, the partition's next job runs on
// every cell, and Close returns. A nil program is refused.
func TestRunJobProgramExits(t *testing.T) {
	m := newMachine(t, Config{Width: 4, Height: 2, Partitions: 2})
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	p := m.Partition(1)
	panicker, exiter := topology.CellID(p.base), topology.CellID(p.base+1)
	for round := 0; round < 2; round++ {
		err := m.RunJob(1, func(c *Cell) error {
			switch c.ID() {
			case panicker:
				panic("boom")
			case exiter:
				runtime.Goexit()
			}
			return nil
		})
		want := fmt.Sprintf("machine: cell %d panic: boom\n", panicker)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("round %d: RunJob = %v, want an error starting %q", round, err, want)
		}
		var ran atomic.Int64
		if err := within(t, func() error {
			return m.RunJob(1, func(c *Cell) error {
				ran.Add(1)
				return nil
			})
		}); err != nil {
			t.Fatalf("round %d: the job after the exits: %v", round, err)
		}
		if got := ran.Load(); got != int64(p.n) {
			t.Fatalf("round %d: the job after the exits ran on %d cells, want %d", round, got, p.n)
		}
	}
	// A nil program has no way to report done: it is refused.
	if err := m.RunJob(1, nil); err == nil {
		t.Fatal("RunJob with a nil program must fail")
	}
	if err := within(t, m.Close); err != nil {
		t.Fatal(err)
	}
}

// within runs f and returns its error, failing the test if f has not
// returned after five seconds.
func within(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("still running after 5s")
		return nil
	}
}
