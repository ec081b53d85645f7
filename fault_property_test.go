// Property tests for the fault layer: random fault plans crossed with
// random PUT/GET workloads. Three properties must hold for every
// seed as long as the loss rates stay under the retry budget:
//
//  1. eventual delivery — every transfer lands and the data is exact;
//  2. exactly-once — flag fetch-and-increment counts equal the number
//     of logical transfers, no matter how the wire mangled them;
//  3. determinism — running the identical seeded plan twice yields the
//     identical fault/communication counter projection.
package ap1000plus

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ap1000plus/internal/fault"
)

// propOp is one randomly generated communication operation.
type propOp struct {
	get  bool
	dst  int
	slot int // index into dst's out buffer
}

const (
	propOutN    = 16 // floats in each cell's out buffer
	propPerCell = 40 // ops issued by each cell
)

// propWorkload pre-generates every cell's op list from one seed, so
// each cell also knows how much traffic to expect (the flag targets).
func propWorkload(rng *rand.Rand, cells int) (ops [][]propOp, putsInto, getsBy []int) {
	ops = make([][]propOp, cells)
	putsInto = make([]int, cells)
	getsBy = make([]int, cells)
	for id := 0; id < cells; id++ {
		for k := 0; k < propPerCell; k++ {
			dst := rng.Intn(cells - 1)
			if dst >= id {
				dst++
			}
			op := propOp{get: rng.Intn(3) == 0, dst: dst, slot: rng.Intn(propOutN)}
			ops[id] = append(ops[id], op)
			if op.get {
				getsBy[id]++
			} else {
				putsInto[dst]++
			}
		}
	}
	return ops, putsInto, getsBy
}

// propRun executes one random workload under one plan and returns the
// machine for inspection. Every PUT writes out[slot] of the source
// into a per-(src,dst,k) slot of the destination's in buffer; every
// GET reads out[slot] of the destination into a per-(dst,k) slot of
// the source's gin buffer — so the expected memory image is exact.
func propRun(t *testing.T, plan *FaultPlan, workers int, ops [][]propOp, putsInto, getsBy []int) *Machine {
	t.Helper()
	m, err := New(WithGrid(2, 2), WithObserve(), WithFault(plan), WithDeliveryWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	cells := m.Cells()
	outS, outD := allocEach(t, m, "out", propOutN)
	inS, inD := allocEach(t, m, "in", cells*propPerCell)
	ginS, ginD := allocEach(t, m, "gin", cells*propPerCell)
	recvFlags := make([]FlagID, cells)
	getFlags := make([]FlagID, cells)
	for id := 0; id < cells; id++ {
		c := m.Cell(CellID(id))
		recvFlags[id] = c.Flags.Alloc()
		getFlags[id] = c.Flags.Alloc()
	}

	err = m.Run(func(c *Cell) error {
		id := int(c.ID())
		comm := NewComm(c)
		for i := range outD[id] {
			outD[id][i] = float64(id*1000 + i)
		}
		c.HWBarrier() // every out buffer initialized before any GET reads it
		for k, op := range ops[id] {
			if op.get {
				if err := comm.Get(Transfer{
					To:     CellID(op.dst),
					Remote: outS[op.dst].Base() + Addr(op.slot*8),
					Local:  ginS[id].Base() + Addr((op.dst*propPerCell+k)*8),
					Size:   8, RecvFlag: getFlags[id],
				}); err != nil {
					return err
				}
			} else {
				if err := comm.Put(Transfer{
					To:     CellID(op.dst),
					Remote: inS[op.dst].Base() + Addr((id*propPerCell+k)*8),
					Local:  outS[id].Base() + Addr(op.slot*8),
					Size:   8, RecvFlag: recvFlags[op.dst],
				}); err != nil {
					return err
				}
			}
		}
		comm.WaitFlag(getFlags[id], int64(getsBy[id]))
		comm.WaitFlag(recvFlags[id], int64(putsInto[id]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FaultErr(); err != nil {
		t.Fatalf("eventual delivery violated: %v", err)
	}

	// Exact memory image: every op's value landed where it should.
	for id := 0; id < cells; id++ {
		for k, op := range ops[id] {
			want := float64(op.dst*1000 + op.slot)
			if op.get {
				if got := ginD[id][op.dst*propPerCell+k]; got != want {
					t.Fatalf("cell %d op %d: GET from %d slot %d = %v, want %v", id, k, op.dst, op.slot, got, want)
				}
			} else {
				want = float64(id*1000 + op.slot)
				if got := inD[op.dst][id*propPerCell+k]; got != want {
					t.Fatalf("cell %d op %d: PUT to %d = %v, want %v", id, k, op.dst, got, want)
				}
			}
		}
	}
	// Exactly-once: the MC flag fetch-and-increment totals equal the
	// logical transfer counts, dup/retransmit traffic notwithstanding.
	mt := m.Metrics()
	for id := 0; id < cells; id++ {
		want := int64(putsInto[id] + getsBy[id])
		if got := mt.Cells[id].FlagIncrements; got != want {
			t.Fatalf("cell %d flag increments = %d, want %d (exactly-once violated)", id, got, want)
		}
	}
	return m
}

// faultProjection is the deterministic slice of a machine's counters:
// everything driven by the seeded fate streams and program order, and
// nothing derived from wall-clock scheduling (stall times, queue
// high-water marks, spill interrupts).
type faultProjection struct {
	Inject                                       fault.Stats
	Retransmits, Dedups, CorruptDetected, Faults int64
	Put, Get, PutBytes, GetBytes, DeliveredBytes int64
	RecvDMAs                                     int64
	FlagIncs                                     []int64
}

func projectFault(mt Metrics) faultProjection {
	t := mt.Totals()
	p := faultProjection{
		Retransmits: t.Retransmits, Dedups: t.Dedups,
		CorruptDetected: t.CorruptDetected, Faults: t.CellFaults,
		Put: t.Put, Get: t.Get, PutBytes: t.PutBytes, GetBytes: t.GetBytes,
		DeliveredBytes: t.DeliveredBytes, RecvDMAs: t.RecvDMAs,
		FlagIncs: flagCounts(mt),
	}
	if mt.Fault != nil {
		p.Inject = mt.Fault.Stats
	}
	return p
}

// TestFaultPropertyRandomWorkloads sweeps random (plan, workload)
// pairs; each is run twice to assert the determinism property on top
// of delivery and exactly-once (checked inside propRun).
func TestFaultPropertyRandomWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			spec := fmt.Sprintf("drop=%.2f,dup=%.2f,reorder=%.2f,corrupt=%.2f,seed=%d",
				rng.Float64()*0.12, rng.Float64()*0.10, rng.Float64()*0.06, rng.Float64()*0.05,
				rng.Int63n(1<<30)+1)
			plan := mustPlan(t, spec)
			ops, putsInto, getsBy := propWorkload(rng, 4)

			for _, workers := range chaosWorkers {
				m1 := propRun(t, plan, workers, ops, putsInto, getsBy)
				m2 := propRun(t, plan, workers, ops, putsInto, getsBy)
				p1, p2 := projectFault(m1.Metrics()), projectFault(m2.Metrics())
				if !reflect.DeepEqual(p1, p2) {
					t.Fatalf("identical plan %q on %d workers gave different projections:\n%+v\n%+v", spec, workers, p1, p2)
				}
			}
		})
	}
}

// TestFaultPropertyPlanRoundTrip: a plan survives String -> Parse ->
// String canonically, and both builds decide identical fates — the
// spec grammar cannot lose information that changes behavior.
func TestFaultPropertyPlanRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plan := &FaultPlan{Seed: rng.Int63n(1 << 30)}
		plan.Rates.Drop = float64(rng.Intn(20)) / 100
		plan.Rates.Dup = float64(rng.Intn(20)) / 100
		plan.Rates.Reorder = float64(rng.Intn(10)) / 100
		plan.Rates.Corrupt = float64(rng.Intn(10)) / 100
		reparsed, err := ParseFaultPlan(plan.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := reparsed.String(), plan.String(); got != want {
			t.Fatalf("seed %d: round trip %q != %q", seed, got, want)
		}
		a, err := plan.Build(16, []string{"put", "get"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := reparsed.Build(16, []string{"put", "get"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			src, dst, class := rng.Intn(16), rng.Intn(16), rng.Intn(2)
			fa, fb := a.Decide(src, dst, class), b.Decide(src, dst, class)
			if fa != fb {
				t.Fatalf("seed %d: fate diverged after round trip: %+v != %+v", seed, fa, fb)
			}
		}
	}
}
