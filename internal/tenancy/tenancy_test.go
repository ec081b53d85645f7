package tenancy

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ap1000plus/internal/core"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/topology"
)

func newSched(t *testing.T, cfg machine.Config) *Scheduler {
	t.Helper()
	if cfg.Width == 0 {
		cfg.Width, cfg.Height = 4, 2
	}
	if cfg.MemoryPerCell == 0 {
		cfg.MemoryPerCell = 1 << 20
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 2
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchedulerRunsJobs(t *testing.T) {
	s := newSched(t, machine.Config{})
	var ran atomic.Int64
	tickets := make([]*Ticket, 8)
	for i := range tickets {
		tk, err := s.Submit(Job{Program: func(rank, size int, c *machine.Cell) error {
			if rank == 0 {
				ran.Add(1)
			}
			if size != 4 {
				t.Errorf("size = %d, want 4", size)
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		r := tk.Wait()
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.JobID == 0 {
			t.Errorf("job %d: no ID assigned", i)
		}
		if r.Submitted.After(r.Started) || r.Started.After(r.Done) {
			t.Errorf("job %d: timestamps not monotone: %v ≤ %v ≤ %v",
				i, r.Submitted, r.Started, r.Done)
		}
		if r.Latency() < r.RunLatency() {
			t.Errorf("job %d: sojourn %v < run %v", i, r.Latency(), r.RunLatency())
		}
	}
	if ran.Load() != 8 {
		t.Errorf("ran %d jobs, want 8", ran.Load())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOOrder pins strict FIFO admission: on a single partition,
// jobs complete in submission order.
func TestFIFOOrder(t *testing.T) {
	s := newSched(t, machine.Config{Width: 2, Height: 2, Partitions: 1})
	var mu sync.Mutex
	var order []int64
	const jobs = 6
	tickets := make([]*Ticket, jobs)
	for i := 0; i < jobs; i++ {
		id := int64(i + 1)
		tk, err := s.Submit(Job{ID: id, Program: func(rank, size int, c *machine.Cell) error {
			if rank == 0 {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for _, tk := range tickets {
		if r := tk.Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for i, id := range order {
		if id != int64(i+1) {
			t.Fatalf("completion order %v, want submission order", order)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBestFitPlacement pins placement: on uneven partitions (2,3,3
// cells from 8 cells in 3 groups), a 2-cell job takes the 2-cell
// partition even though bigger ones are free.
func TestBestFitPlacement(t *testing.T) {
	s := newSched(t, machine.Config{Width: 4, Height: 2, Partitions: 3})
	sizes := make([]int, 3)
	for i := range sizes {
		sizes[i] = s.Machine().Partition(i).Size()
	}
	if sizes[0] != 2 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("partition sizes = %v, want [2 3 3]", sizes)
	}
	tk, err := s.Submit(Job{Cells: 2, Program: func(rank, size int, c *machine.Cell) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Partition != 0 {
		t.Errorf("2-cell job placed on partition %d (size %d), want best-fit 0",
			r.Partition, sizes[r.Partition])
	}
	tk, err = s.Submit(Job{Cells: 3, Program: func(rank, size int, c *machine.Cell) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); sizes[r.Partition] != 3 {
		t.Errorf("3-cell job placed on partition %d (size %d), want a 3-cell one",
			r.Partition, sizes[r.Partition])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitErrors(t *testing.T) {
	s := newSched(t, machine.Config{})
	if _, err := s.Submit(Job{}); err == nil {
		t.Error("job without program must be rejected")
	}
	if _, err := s.Submit(Job{Cells: 64, Program: func(rank, size int, c *machine.Cell) error { return nil }}); err == nil {
		t.Error("job larger than every partition must be rejected")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Job{Program: func(rank, size int, c *machine.Cell) error { return nil }}); err == nil {
		t.Error("submit after close must be rejected")
	}
	if err := s.Close(); err == nil {
		t.Error("double close must be rejected")
	}
}

func TestLoadGenDeterministicGaps(t *testing.T) {
	a, b := uint64(42), uint64(42)
	for i := 0; i < 100; i++ {
		if g1, g2 := expGap(&a, 5000), expGap(&b, 5000); g1 != g2 {
			t.Fatalf("gap %d: %v != %v with equal seeds", i, g1, g2)
		}
	}
	c := uint64(43)
	same := true
	a = 42
	for i := 0; i < 10; i++ {
		if expGap(&a, 5000) != expGap(&c, 5000) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical gap sequences")
	}
}

func TestLoadGenRun(t *testing.T) {
	s := newSched(t, machine.Config{})
	var ran atomic.Int64
	start := time.Now()
	res := LoadGen{Jobs: 20, Rate: 4000, Seed: 7}.Run(s, func(i int) Job {
		return Job{Program: func(rank, size int, c *machine.Cell) error {
			if rank == 0 {
				ran.Add(1)
			}
			return nil
		}}
	})
	if len(res) != 20 {
		t.Fatalf("results = %d, want 20", len(res))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
		if r.Done.Before(start) {
			t.Errorf("job %d: bogus completion time", i)
		}
	}
	if ran.Load() != 20 {
		t.Errorf("ran %d jobs, want 20", ran.Load())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadGenRingPuts replays an open-loop stream of ring-PUT jobs onto a
// 16-cell machine split into k partitions. Every job runs on a whole
// partition of 16/k cells, each cell PUTs four times to its ring
// successor inside the partition and waits on a recv flag allocated
// per job, so the PUTs issued over all partitions add up to exactly
// jobs·(16/k)·4.
func TestLoadGenRingPuts(t *testing.T) {
	const cells, jobs, puts, payload = 16, 24, 4, 256
	for _, k := range []int{2, 4} {
		s := newSched(t, machine.Config{Width: 4, Height: 4, Partitions: k, Observe: true})
		m := s.Machine()
		// Each cell PUTs from the first half of its buffer into the
		// second half of its successor's.
		buf := make([]mem.Addr, cells)
		for id := range buf {
			seg, _, err := m.Cell(topology.CellID(id)).AllocBytes("job-buf", 2*payload)
			if err != nil {
				t.Fatal(err)
			}
			buf[id] = seg.Base()
		}
		program := func(rank, size int, c *machine.Cell) error {
			comm := core.New(c)
			right := m.Partition(m.PartitionOf(c.ID())).Group().RingNext(c.ID())
			recvFlag := c.Flags.Alloc()
			for i := 0; i < puts; i++ {
				if err := comm.Put(core.Transfer{To: right, Remote: buf[right] + payload, Local: buf[c.ID()],
					Size: payload, RecvFlag: recvFlag}); err != nil {
					return err
				}
			}
			c.Flags.Wait(recvFlag, puts)
			return nil
		}
		start := time.Now()
		res := LoadGen{Jobs: jobs, Rate: 4000, Seed: 7}.Run(s, func(i int) Job { return Job{Program: program} })
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if len(res) != jobs {
			t.Fatalf("k=%d: results = %d, want %d", k, len(res), jobs)
		}
		for i, r := range res {
			if r.Err != nil || r.Done.Before(start) {
				t.Errorf("k=%d job %d: err=%v done=%v, stream started %v", k, i, r.Err, r.Done, start)
			}
		}
		var issued int64
		for p := 0; p < k; p++ {
			mt := m.PartitionMetrics(p)
			issued += mt.Totals().Put
		}
		if want := int64(jobs * cells / k * puts); issued != want {
			t.Errorf("k=%d: %d PUTs issued over all partitions, want jobs·(16/k)·4 = %d", k, issued, want)
		}
	}
}
