// Chaos suite: the three communication-kernel examples run under
// seeded fault plans — drops, duplicates, reorders, corruption — and
// must produce results bit-identical to the fault-free run, with the
// MC flag counts exactly equal (the fetch-and-increment fires exactly
// once per logical transfer no matter how often the wire re-delivers
// it). The reliable-delivery counters must show the recovery actually
// happened, and an exhausted retry budget must surface as a CellFault
// instead of a hang.
package ap1000plus

import (
	"errors"
	"math"
	"testing"
)

// chaosKernel runs one communication kernel on a 2x2 machine under an
// optional fault plan, returning the numeric output (for bit-exact
// comparison) and the machine counter snapshot.
type chaosKernel struct {
	name string
	run  func(t *testing.T, plan *FaultPlan, workers int) ([]float64, Metrics)
}

// chaosWorkers are the delivery-worker counts the fault gates sweep,
// so they do not depend on the host's core count: 1 delivers every
// packet inline, 4 puts every packet of the 2x2 machine on a link.
var chaosWorkers = []int{1, 4}

// chaosPlans are the seeded fault plans the chaos gates run under, with
// the injector decisions each plan must have produced.
var chaosPlans = []struct {
	name, spec                      string
	drops, dups, reorders, corrupts bool
}{
	{"drop", "drop=0.08,seed=42", true, false, false, false},
	{"dup", "dup=0.1,seed=7", false, true, false, false},
	{"drop+dup", "drop=0.05,dup=0.05,seed=42", true, true, false, false},
	{"reorder", "reorder=0.08,seed=13", false, false, true, false},
	{"corrupt", "corrupt=0.06,seed=5", false, false, false, true},
	{"storm", "drop=0.05,dup=0.05,reorder=0.04,corrupt=0.03,seed=99", true, true, true, true},
}

// mustPlan parses a fault plan spec; the empty spec is no plan.
func mustPlan(t *testing.T, spec string) *FaultPlan {
	t.Helper()
	if spec == "" {
		return nil
	}
	plan, err := ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// mustRun runs program on m and fails t if the run, the reliable
// delivery layer or the sanitizer reports an error.
func mustRun(t *testing.T, m *Machine, program func(c *Cell) error) {
	t.Helper()
	for _, err := range []error{m.Run(program), m.FaultErr(), m.SanitizeErr()} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func chaosMachine(t *testing.T, plan *FaultPlan, workers int) *Machine {
	t.Helper()
	opts := []Option{WithGrid(2, 2), WithObserve(), WithDeliveryWorkers(workers)}
	if plan != nil {
		opts = append(opts, WithFault(plan))
	}
	m, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// allocEach allocates n float64s named name on every cell of m.
func allocEach(t *testing.T, m *Machine, name string, n int) ([]*Segment, [][]float64) {
	t.Helper()
	segs, data := make([]*Segment, m.Cells()), make([][]float64, m.Cells())
	for id := range segs {
		var err error
		if segs[id], data[id], err = m.Cell(CellID(id)).AllocFloat64(name, n); err != nil {
			t.Fatal(err)
		}
	}
	return segs, data
}

// newRuntimes builds the vpp runtime of every cell of m.
func newRuntimes(t *testing.T, m *Machine) []*Runtime {
	t.Helper()
	rts := make([]*Runtime, m.Cells())
	for id := range rts {
		var err error
		if rts[id], err = NewRuntime(m.Cell(CellID(id))); err != nil {
			t.Fatal(err)
		}
	}
	return rts
}

// chaosMatMul is the ring matmul of examples/matmul at a test size,
// rotating the blocks with one PUT per row (rather than one bulk PUT)
// so the wire sees enough packets for every plan's faults to fire.
func chaosMatMul(t *testing.T, plan *FaultPlan, workers int) ([]float64, Metrics) {
	t.Helper()
	m := chaosMachine(t, plan, workers)
	const n = 32
	np := m.Cells()
	block := n / np

	_, aD := allocEach(t, m, "A", block*n)
	b0S, b0D := allocEach(t, m, "B0", block*n)
	b1S, b1D := allocEach(t, m, "B1", block*n)
	_, cD := allocEach(t, m, "C", block*n)

	aElem := func(i, j int) float64 { return math.Sin(float64(i+j) * 0.1) }
	bElem := func(i, j int) float64 { return math.Cos(float64(i*2+j) * 0.05) }

	mustRun(t, m, func(c *Cell) error {
		comm := NewComm(c)
		r := int(c.ID())
		lo, hi := r*n/np, (r+1)*n/np
		mine := hi - lo
		for i := 0; i < mine; i++ {
			for j := 0; j < n; j++ {
				aD[r][i*n+j] = aElem(lo+i, j)
				b0D[r][i*n+j] = bElem(lo+i, j)
			}
		}
		recvFlag := c.Flags.Alloc()
		sendFlag := c.Flags.Alloc()
		c.HWBarrier()

		segs := [2][]*Segment{b0S, b1S}
		data := [2][][]float64{b0D, b1D}
		next := (r + 1) % np
		for step := 0; step < np; step++ {
			cur, nxt := step%2, (step+1)%2
			owner := (r - step + np*np) % np
			olo, ohi := owner*n/np, (owner+1)*n/np
			if step < np-1 {
				for i := 0; i < ohi-olo; i++ {
					if err := comm.Put(Transfer{
						To:     CellID(next),
						Remote: segs[nxt][next].Base() + Addr(i*n*8),
						Local:  segs[cur][r].Base() + Addr(i*n*8),
						Size:   int64(n * 8), SendFlag: sendFlag, RecvFlag: recvFlag,
					}); err != nil {
						return err
					}
				}
			}
			bs := data[cur][r]
			for i := 0; i < mine; i++ {
				for k := olo; k < ohi; k++ {
					aik := aD[r][i*n+k]
					for j := 0; j < n; j++ {
						cD[r][i*n+j] += aik * bs[(k-olo)*n+j]
					}
				}
			}
			if step < np-1 {
				comm.WaitFlag(sendFlag, int64((step+1)*block))
				comm.WaitFlag(recvFlag, int64((step+1)*block))
			}
			c.HWBarrier()
		}
		return nil
	})
	var out []float64
	for r := 0; r < np; r++ {
		out = append(out, cD[r]...)
	}
	return out, m.Metrics()
}

// chaosStencil is the OVERLAP FIX Jacobi solve of examples/stencil at
// a test size: stride PUTs refresh shadow columns every iteration.
func chaosStencil(t *testing.T, plan *FaultPlan, workers int) ([]float64, Metrics) {
	t.Helper()
	m := chaosMachine(t, plan, workers)
	const (
		n     = 16
		iters = 6
	)
	grid, err := NewArray2D(m, "heat", n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewArray2D(m, "heat2", n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	rts := newRuntimes(t, m)
	sums := make([]float64, m.Cells())

	mustRun(t, m, func(c *Cell) error {
		rt := rts[c.ID()]
		r := rt.Rank()
		lo, hi := grid.OwnedCols(r)
		w := grid.LocalWidth()
		for row := 0; row < n; row++ {
			for j := lo; j < hi; j++ {
				v := 0.0
				if j == 0 {
					v = 100.0
				}
				grid.Set(r, row, grid.LocalCol(r, j), v)
				next.Set(r, row, next.LocalCol(r, j), v)
			}
		}
		rt.Barrier()

		cur, nxt := grid, next
		for it := 0; it < iters; it++ {
			if err := rt.OverlapFix2D(cur, true); err != nil {
				return err
			}
			g := cur.Local(r)
			for row := 1; row < n-1; row++ {
				for j := lo; j < hi; j++ {
					if j == 0 || j == n-1 {
						continue
					}
					cc := cur.LocalCol(r, j)
					v := 0.25 * (g[row*w+cc-1] + g[row*w+cc+1] + g[(row-1)*w+cc] + g[(row+1)*w+cc])
					nxt.Set(r, row, cc, v)
				}
			}
			cur, nxt = nxt, cur
			rt.Barrier()
		}
		var local float64
		for row := 0; row < n; row++ {
			for j := lo; j < hi; j++ {
				local += cur.At(r, row, cur.LocalCol(r, j))
			}
		}
		sums[r] = rt.GlobalSum(local)
		return nil
	})
	var out []float64
	for id := 0; id < m.Cells(); id++ {
		out = append(out, grid.Local(id)...)
		out = append(out, next.Local(id)...)
	}
	out = append(out, sums...)
	return out, m.Metrics()
}

// chaosRedistribute is the block <-> cyclic round trip of
// examples/redistribute at a test size: comb-stride PUTs both ways.
func chaosRedistribute(t *testing.T, plan *FaultPlan, workers int) ([]float64, Metrics) {
	t.Helper()
	m := chaosMachine(t, plan, workers)
	const n = 64
	blk, err := NewArray1D(m, "blk", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := NewCyclicArray1D(m, "cyc", n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewArray1D(m, "back", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	rts := newRuntimes(t, m)

	mustRun(t, m, func(c *Cell) error {
		rt := rts[c.ID()]
		r := rt.Rank()
		lo, _ := blk.OwnedRange(r)
		own := blk.Owned(r)
		for i := range own {
			own[i] = float64(lo + i)
		}
		rt.Barrier()

		mv, err := rt.RedistributeBlockToCyclic(cyc, blk)
		if err != nil {
			return err
		}
		mv.Wait()
		mv, err = rt.RedistributeCyclicToBlock(back, cyc)
		if err != nil {
			return err
		}
		mv.Wait()
		return nil
	})
	var out []float64
	for id := 0; id < m.Cells(); id++ {
		out = append(out, cyc.Local(id)...)
		out = append(out, back.Owned(id)...)
	}
	return out, m.Metrics()
}

func flagCounts(mt Metrics) []int64 {
	out := make([]int64, len(mt.Cells))
	for i := range mt.Cells {
		out[i] = mt.Cells[i].FlagIncrements
	}
	return out
}

// TestChaosKernels drives every kernel under every fault plan: the
// numerics must match the fault-free run bit-for-bit, flag counts must
// match exactly, and the fault counters must show the plan actually
// fired and was recovered from.
func TestChaosKernels(t *testing.T) {
	kernels := []chaosKernel{
		{"matmul", chaosMatMul},
		{"stencil", chaosStencil},
		{"redistribute", chaosRedistribute},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			base, baseM := k.run(t, nil, 4)
			if baseM.Fault != nil {
				t.Fatal("fault metrics reported on a fault-free machine")
			}
			baseFlags := flagCounts(baseM)
			for _, p := range chaosPlans {
				t.Run(p.name, func(t *testing.T) {
					plan := mustPlan(t, p.spec)
					for _, workers := range chaosWorkers {
						got, mt := k.run(t, plan, workers)
						if len(got) != len(base) {
							t.Fatalf("result length %d, want %d", len(got), len(base))
						}
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(base[i]) {
								t.Fatalf("result[%d] = %v, fault-free run produced %v", i, got[i], base[i])
							}
						}
						gotFlags := flagCounts(mt)
						for i := range gotFlags {
							if gotFlags[i] != baseFlags[i] {
								t.Fatalf("cell %d flag increments = %d, fault-free run produced %d (exactly-once violated)",
									i, gotFlags[i], baseFlags[i])
							}
						}
						f := mt.Fault
						if f == nil {
							t.Fatal("Metrics().Fault nil on a machine with a fault plan")
						}
						if f.CellFaults != 0 {
							t.Fatalf("retry budget exhausted %d times under a recoverable plan", f.CellFaults)
						}
						if p.drops && (f.Drops == 0 || f.Retransmits == 0) {
							t.Errorf("drop plan: drops=%d retransmits=%d, want both > 0", f.Drops, f.Retransmits)
						}
						if p.dups && (f.Dups == 0 || f.Dedups == 0) {
							t.Errorf("dup plan: dups=%d dedups=%d, want both > 0", f.Dups, f.Dedups)
						}
						if p.reorders && (f.Reorders == 0 || f.Retransmits == 0 || f.Dedups == 0) {
							t.Errorf("reorder plan: reorders=%d retransmits=%d dedups=%d, want all > 0",
								f.Reorders, f.Retransmits, f.Dedups)
						}
						if p.corrupts && (f.Corrupts == 0 || f.CorruptDetected == 0 || f.Retransmits == 0) {
							t.Errorf("corrupt plan: corrupts=%d detected=%d retransmits=%d, want all > 0",
								f.Corrupts, f.CorruptDetected, f.Retransmits)
						}
					}
				})
			}
		})
	}
}

// TestChaosBudgetExhaustion kills one link outright with a tiny retry
// budget: the machine must come back (no hang), surface a CellFault
// through FaultErr/CellFaultErrs and the counters, and log the
// cell-fault interrupt — graceful degradation, not deadlock. The
// program must not wait on the flag of the doomed transfer.
func TestChaosBudgetExhaustion(t *testing.T) {
	m, err := New(WithGrid(2, 2), WithFault(mustPlan(t, "link:0:1:drop=1,budget=4,seed=3")))
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := allocEach(t, m, "buf", 8)
	err = m.Run(func(c *Cell) error {
		if c.ID() != 0 {
			return nil
		}
		comm := NewComm(c)
		return comm.Put(Transfer{To: 1, Remote: segs[1].Base(), Local: segs[0].Base(), Size: 64})
	})
	if err != nil {
		t.Fatal(err)
	}
	ferr := m.FaultErr()
	if ferr == nil {
		t.Fatal("FaultErr nil after a dead link exhausted the retry budget")
	}
	var cf *CellFault
	if !errors.As(ferr, &cf) {
		t.Fatalf("FaultErr = %v, want a *CellFault", ferr)
	}
	if cf.Cell != 0 || cf.Dst != 1 || cf.Attempts != 4 {
		t.Fatalf("CellFault = %+v, want cell 0 -> 1 after 4 attempts", cf)
	}
	if n := len(m.CellFaultErrs()); n != 1 {
		t.Fatalf("CellFaultErrs reports %d faults, want 1", n)
	}
	mt := m.Metrics()
	if mt.Fault == nil || mt.Fault.CellFaults != 1 {
		t.Fatalf("Fault metrics = %+v, want CellFaults=1", mt.Fault)
	}
	if mt.Fault.Retransmits != 3 {
		t.Fatalf("Retransmits = %d, want 3 (budget 4 = 1 try + 3 retries)", mt.Fault.Retransmits)
	}
	if got := mt.Cells[0].OSInterrupts["cell-fault"]; got != 1 {
		t.Fatalf("cell 0 cell-fault interrupts = %d, want 1", got)
	}
}
