package ap1000plus

import (
	"math"
	"testing"

	"ap1000plus/internal/trace"
)

// TestCountersMatchTraceStats runs the same program under tracing and
// observation at once and cross-checks the two accountings: the obs
// counters must agree with trace.Stats on every operation class, with
// acknowledge GETs visible only on the counter side (the trace
// excludes them, like the paper's Table 3).
func TestCountersMatchTraceStats(t *testing.T) {
	m, err := New(
		WithGrid(2, 2), WithMemoryPerCell(1<<20),
		WithTrace("obs-consistency"), WithObserve(),
	)
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := allocEach(t, m, "buf", 64)
	rf := m.Cell(0).Flags.Alloc()
	mustRun(t, m, func(c *Cell) error {
		comm := NewComm(c)
		me := int(c.ID())
		next := (me + 1) % 4
		// One acknowledged 64 B PUT per cell: the trace records one
		// PUT; the counters additionally see the ack GET behind it.
		if err := comm.Put(Transfer{To: CellID(next), Remote: segs[next].Base(), Local: segs[me].Base(), Size: 64, Ack: true}); err != nil {
			return err
		}
		comm.AckWait()
		if me == 0 {
			// One stride GET, recorded as GETS on both sides.
			err := comm.GetStride(2, segs[2].Base(), segs[0].Base()+256, NoFlag, rf,
				Stride{ItemSize: 8, Count: 4, Skip: 24}, Contiguous(32))
			if err != nil {
				return err
			}
			comm.WaitFlag(rf, 1)
		}
		comm.Barrier()
		return nil
	})

	ts := m.Trace()
	if ts == nil {
		t.Fatal("trace missing")
	}
	row := trace.Stats(ts)
	mt := m.Metrics()
	tot := mt.Totals()
	n := float64(m.Cells())

	// Operation classes: trace averages per PE, counters are totals.
	if got, want := tot.Put, int64(math.Round(row.Put*n)); got != want || got != 4 {
		t.Errorf("PUT: counters %d, trace %d", got, want)
	}
	if got, want := tot.GetS, int64(math.Round(row.GetS*n)); got != want || got != 1 {
		t.Errorf("GETS: counters %d, trace %d", got, want)
	}
	if tot.PutS != 0 || row.PutS != 0 || tot.Get != 0 || row.Get != 0 {
		t.Errorf("unexpected PUTS/GET: counters %+v, trace %+v", tot, row)
	}
	if got, want := tot.Barriers, int64(math.Round(row.Sync*n)); got != want || got != 4 {
		t.Errorf("barriers: counters %d, trace %d", got, want)
	}
	// Ack GETs appear only in the counters.
	if tot.AckGet != 4 {
		t.Errorf("ack GETs = %d, want 4", tot.AckGet)
	}
	// Payload accounting: the trace's mean message size covers the
	// same bytes the counters attribute to PUT and GET issues.
	ops := math.Round((row.Put + row.PutS + row.Get + row.GetS) * n)
	traceBytes := int64(math.Round(row.MsgSize * ops))
	if counterBytes := tot.PutBytes + tot.GetBytes; counterBytes != traceBytes || counterBytes != 288 {
		t.Errorf("bytes: counters %d, trace %d", counterBytes, traceBytes)
	}
}

// issueAllocs measures allocations per warm run of op on cell 0 of an
// unobserved 16-cell machine, once per delivery-worker count in
// {1, 2, 8}: cell 0 → cell 1 is delivered inline with one worker and
// over a link with more, and the verdict must not depend on which the
// host's core count happens to pick.
func issueAllocs(t *testing.T, what string, build func(comm *Comm, segs []*Segment) (op func())) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops items under -race; zero-alloc not measurable")
	}
	for _, workers := range []int{1, 2, 8} {
		m, err := New(WithGrid(4, 4), WithMemoryPerCell(1<<20), WithDeliveryWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		segs, _ := allocEach(t, m, "b", 64)
		var allocs float64
		mustRun(t, m, func(c *Cell) error {
			if c.ID() != 0 {
				return nil
			}
			op := build(NewComm(c), segs)
			for i := 0; i < 100; i++ {
				op() // warm the payload pool, queues, links and scheduler
			}
			allocs = testing.AllocsPerRun(200, op)
			return nil
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.2f objects/op with Observe:false and %d delivery workers, want 0", what, allocs, workers)
		}
	}
}

// TestPutIssueZeroAllocUnobserved is the regression guard for the
// zero-cost-when-disabled contract: with Observe off, an acknowledged
// PUT round trip allocates nothing on the issue path once the payload
// pool is warm.
func TestPutIssueZeroAllocUnobserved(t *testing.T) {
	issueAllocs(t, "PUT issue path", func(comm *Comm, segs []*Segment) func() {
		return func() {
			if err := comm.Put(Transfer{To: 1, Remote: segs[1].Base(), Local: segs[0].Base(), Size: 8, Ack: true}); err != nil {
				t.Error(err)
			}
			comm.AckWait()
		}
	})
}

// TestStridePutZeroAllocUnobserved extends the contract to the stride
// DMA engine: gathering a column into a pooled payload, scattering it
// into the remote pattern and releasing the payload allocates nothing,
// whichever kernel the shape selects.
func TestStridePutZeroAllocUnobserved(t *testing.T) {
	column := Stride{ItemSize: 8, Count: 8, Skip: 56}
	pairs := Stride{ItemSize: 16, Count: 4, Skip: 16}
	issueAllocs(t, "stride PUT path", func(comm *Comm, segs []*Segment) func() {
		return func() {
			for _, pats := range [][2]Stride{{column, Contiguous(64)}, {Contiguous(64), column}, {column, column}, {column, pairs}} {
				if err := comm.PutStride(1, segs[1].Base(), segs[0].Base(), NoFlag, NoFlag, true, pats[0], pats[1]); err != nil {
					t.Error(err)
				}
			}
			comm.AckWait()
		}
	})
}

// TestBatchIssueZeroAllocUnobserved extends the zero-cost contract to
// the batched path: once the Comm's reusable CommandList and the
// payload pool are warm, staging and committing a whole acknowledged
// batch allocates nothing.
func TestBatchIssueZeroAllocUnobserved(t *testing.T) {
	issueAllocs(t, "batched issue path", func(comm *Comm, segs []*Segment) func() {
		return func() {
			b := comm.Batch().Coalesce()
			for k := 0; k < 8; k++ {
				b.Put(Transfer{To: 1, Remote: segs[1].Base() + Addr(k*8), Local: segs[0].Base() + Addr(k*8), Size: 8, Ack: true})
			}
			if err := b.Commit(); err != nil {
				t.Error(err)
			}
			comm.AckWait()
		}
	})
}
