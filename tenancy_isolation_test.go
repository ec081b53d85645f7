// Multi-tenant isolation property: a tenant's job on one partition
// must produce results bit-identical to a solo run of the same job on
// an otherwise idle machine, even while a chaos tenant hammers the
// neighbor partition under an aggressive fault plan. Partitions are
// the isolation boundary — disjoint cells, private barrier domains, a
// T-net that refuses cross-partition traffic — and fault fates are a
// deterministic function of (seed, stream, index), so tenant A's wire
// experience cannot depend on tenant B's traffic.
package ap1000plus

import (
	"math"
	"sync"
	"testing"
)

// tenantBufs is one tenant's communication buffers, allocated once
// per machine before Open so repeated comparisons see identical
// addresses.
type tenantBufs struct {
	cells      []CellID
	src, dst   []*Segment
	srcD, dstD [][]float64
}

func allocTenantBufs(t *testing.T, m *Machine, part int, words int) *tenantBufs {
	t.Helper()
	g := m.Partition(part).Group()
	tb := &tenantBufs{cells: g.SortedCopy()}
	for _, id := range tb.cells {
		c := m.Cell(id)
		seg, data, err := c.AllocFloat64("tenant-src", words)
		if err != nil {
			t.Fatal(err)
		}
		tb.src, tb.srcD = append(tb.src, seg), append(tb.srcD, data)
		if seg, data, err = c.AllocFloat64("tenant-dst", words); err != nil {
			t.Fatal(err)
		}
		tb.dst, tb.dstD = append(tb.dst, seg), append(tb.dstD, data)
	}
	return tb
}

// tenantProgram is a multi-round ring accumulation inside one
// partition: each round every cell PUTs its buffer row-by-row to the
// right neighbor (many small packets, so every fault class fires),
// waits on both flags, folds the received values into the next round,
// and barriers on the partition's own domain.
func tenantProgram(tb *tenantBufs, fill float64, rounds, words int) func(c *Cell) error {
	return func(c *Cell) error {
		comm := NewComm(c)
		np := len(tb.cells)
		rank := 0
		for i, id := range tb.cells {
			if id == c.ID() {
				rank = i
			}
		}
		recvFlag := c.Flags.Alloc() // same ID on every cell after reset
		sendFlag := c.Flags.Alloc()
		for i := 0; i < words; i++ {
			tb.srcD[rank][i] = fill + float64(rank) + math.Sin(float64(i)*0.3)
		}
		right := tb.cells[(rank+1)%np]
		const row = 4 // words per PUT: small packets, many of them
		for round := 0; round < rounds; round++ {
			for off := 0; off < words; off += row {
				if err := comm.Put(Transfer{
					To:     right,
					Remote: tb.dst[(rank+1)%np].Base() + Addr(off*8),
					Local:  tb.src[rank].Base() + Addr(off*8),
					Size:   row * 8, SendFlag: sendFlag, RecvFlag: recvFlag,
				}); err != nil {
					return err
				}
			}
			puts := int64((round + 1) * words / row)
			comm.WaitFlag(sendFlag, puts)
			comm.WaitFlag(recvFlag, puts)
			c.HWBarrier()
			for i := 0; i < words; i++ {
				tb.srcD[rank][i] = tb.dstD[rank][i] + float64(round)*0.25
			}
			c.HWBarrier()
		}
		return nil
	}
}

// tenantSnapshot captures everything the isolation property compares:
// the output data, the MC flag-increment counts (exactly-once), and
// the deterministic per-partition counters. Timing-dependent counters
// (wait/stall/backoff nanos, spills, interrupts) are excluded — they
// are not part of the result.
type tenantSnapshot struct {
	data                                     []float64
	flags                                    []int64
	puts, putBytes, delivered, recvDMAs      int64
	retransmits, dedups, corrupt, cellFaults int64
	barriers                                 int64
}

func snapshotTenant(tb *tenantBufs, m *Machine, part int) tenantSnapshot {
	var s tenantSnapshot
	for rank := range tb.cells {
		s.data = append(s.data, tb.srcD[rank]...)
	}
	mt := m.PartitionMetrics(part)
	for i := range mt.Cells {
		s.flags = append(s.flags, mt.Cells[i].FlagIncrements)
	}
	tot := mt.Totals()
	s.puts, s.putBytes = tot.Put, tot.PutBytes
	s.delivered, s.recvDMAs = tot.DeliveredBytes, tot.RecvDMAs
	s.retransmits, s.dedups = tot.Retransmits, tot.Dedups
	s.corrupt, s.cellFaults = tot.CorruptDetected, tot.CellFaults
	s.barriers = mt.HWBarriers
	return s
}

func tenancyChaosMachine(t *testing.T, workers int) *Machine {
	t.Helper()
	plan := mustPlan(t, "drop=0.05,dup=0.05,reorder=0.04,corrupt=0.03,seed=99")
	m, err := New(WithCells(8), WithPartitions(2), WithObserve(), WithFault(plan), WithDeliveryWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChaosTenantIsolation(t *testing.T) {
	const (
		rounds = 4
		words  = 32
	)

	for _, workers := range chaosWorkers {
		// Solo: tenant A alone on partition 0 of an idle machine.
		solo := tenancyChaosMachine(t, workers)
		soloBufs := allocTenantBufs(t, solo, 0, words)
		if err := solo.Open(); err != nil {
			t.Fatal(err)
		}
		if err := solo.RunJob(0, tenantProgram(soloBufs, 1, rounds, words)); err != nil {
			t.Fatal(err)
		}
		want := snapshotTenant(soloBufs, solo, 0)
		if err := solo.Close(); err != nil {
			t.Fatal(err)
		}
		if want.retransmits == 0 || want.dedups == 0 {
			t.Fatalf("fault plan too tame: retransmits=%d dedups=%d, the chaos run would prove nothing",
				want.retransmits, want.dedups)
		}

		// Combined: same job on partition 0 while a chaos tenant hammers
		// partition 1 with triple the traffic, concurrently.
		m := tenancyChaosMachine(t, workers)
		aBufs := allocTenantBufs(t, m, 0, words)
		bBufs := allocTenantBufs(t, m, 1, words)
		if err := m.Open(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs[0] = m.RunJob(0, tenantProgram(aBufs, 1, rounds, words))
		}()
		go func() {
			defer wg.Done()
			errs[1] = m.RunJob(1, tenantProgram(bBufs, 9000, 3*rounds, words))
		}()
		wg.Wait()
		got := snapshotTenant(aBufs, m, 0)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("tenant %d: %v", i, err)
			}
		}

		// Tenant A's world must be bit-identical to the solo run.
		for i := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				t.Fatalf("data[%d] = %v with a chaos neighbor, solo run produced %v", i, got.data[i], want.data[i])
			}
		}
		for i := range want.flags {
			if got.flags[i] != want.flags[i] {
				t.Fatalf("cell %d flag increments = %d with a chaos neighbor, solo %d (exactly-once violated)",
					i, got.flags[i], want.flags[i])
			}
		}
		type pair struct {
			name      string
			got, want int64
		}
		for _, p := range []pair{
			{"puts", got.puts, want.puts},
			{"put-bytes", got.putBytes, want.putBytes},
			{"delivered-bytes", got.delivered, want.delivered},
			{"recv-DMAs", got.recvDMAs, want.recvDMAs},
			{"retransmits", got.retransmits, want.retransmits},
			{"dedups", got.dedups, want.dedups},
			{"corrupt-detected", got.corrupt, want.corrupt},
			{"cell-faults", got.cellFaults, want.cellFaults},
			{"hw-barriers", got.barriers, want.barriers},
		} {
			if p.got != p.want {
				t.Errorf("partition-0 %s = %d with a chaos neighbor, solo run produced %d", p.name, p.got, p.want)
			}
		}
	}
}
