// Property test for batched command issue: the same workload executed
// three ways — one doorbell per command, one CommandList per cell, and
// one coalescing CommandList per cell — must leave bit-identical
// memory images and exactly the same user-visible flag counts, while
// the coalesced run must reach the wire in measurably fewer commands.
// The comparison runs plain, under the apsan sanitizer, and over a
// seeded lossy wire (drop+dup) with reliable delivery armed.
package ap1000plus

import (
	"math/rand"
	"reflect"
	"testing"
)

const (
	bpropCells  = 4
	bpropOps    = 32           // ops issued by each cell
	bpropOutN   = 512          // floats in each cell's out buffer
	bpropRegion = 4 * bpropOps // in-buffer floats reserved per source
	bpropSeed   = 20260805
)

// bpropOp is one logical transfer of the generated workload.
type bpropOp struct {
	kind int // 0 contiguous PUT (ack), 1 stride PUT (ack), 2 flagged PUT, 3 GET
	dst  int
	n    int // elements moved
	slot int // GET: first remote out slot read
}

// bpropWorkload generates every cell's op list from one seed. Runs of
// consecutive same-destination contiguous PUTs are common by
// construction, so the coalescing run has real merging to do.
func bpropWorkload(seed int64) (ops [][]bpropOp, flagsInto, getsBy []int) {
	rng := rand.New(rand.NewSource(seed))
	ops = make([][]bpropOp, bpropCells)
	flagsInto = make([]int, bpropCells)
	getsBy = make([]int, bpropCells)
	for id := 0; id < bpropCells; id++ {
		prev := -1
		for k := 0; k < bpropOps; k++ {
			dst := prev
			if prev < 0 || rng.Intn(2) == 0 {
				dst = rng.Intn(bpropCells - 1)
				if dst >= id {
					dst++
				}
			}
			prev = dst
			op := bpropOp{dst: dst, n: 1 + rng.Intn(4)}
			switch r := rng.Intn(10); {
			case r < 5:
				op.kind = 0
			case r < 7:
				op.kind = 1
			case r < 8:
				op.kind = 2
				op.n = 1
				flagsInto[dst]++
			default:
				op.kind = 3
				op.slot = rng.Intn(32)
				getsBy[id]++
			}
			ops[id] = append(ops[id], op)
		}
	}
	return ops, flagsInto, getsBy
}

// bpropExpect replays the workload on the host and returns the exact
// expected in/gin images.
func bpropExpect(ops [][]bpropOp) (expIn, expGin [][]float64) {
	outVal := func(id, j int) float64 { return float64(id*10000 + j) }
	expIn = make([][]float64, bpropCells)
	expGin = make([][]float64, bpropCells)
	for id := range expIn {
		expIn[id] = make([]float64, bpropCells*bpropRegion)
		expGin[id] = make([]float64, bpropCells*bpropRegion)
	}
	for id := 0; id < bpropCells; id++ {
		lc, gc := 0, 0
		rc := make([]int, bpropCells)
		for _, op := range ops[id] {
			switch op.kind {
			case 0, 2:
				for i := 0; i < op.n; i++ {
					expIn[op.dst][id*bpropRegion+rc[op.dst]+i] = outVal(id, lc+i)
				}
				lc += op.n
				rc[op.dst] += op.n
			case 1:
				for i := 0; i < op.n; i++ {
					expIn[op.dst][id*bpropRegion+rc[op.dst]+i] = outVal(id, lc+2*i)
				}
				lc += 2 * op.n
				rc[op.dst] += op.n
			case 3:
				for i := 0; i < op.n; i++ {
					expGin[id][gc+i] = outVal(op.dst, op.slot+i)
				}
				gc += op.n
			}
		}
	}
	return expIn, expGin
}

// bpropSnapshot is the user-visible outcome of one run.
type bpropSnapshot struct {
	In, Gin   [][]float64
	RecvFlags []int64
	GetFlags  []int64
}

// bpropRun executes the workload in one issue mode (0 = singles,
// 1 = CommandList, 2 = coalescing CommandList) and returns the
// snapshot plus the machine's issued-command totals.
func bpropRun(t *testing.T, variant string, mode int, ops [][]bpropOp, flagsInto, getsBy []int) (bpropSnapshot, Metrics) {
	t.Helper()
	opts := []Option{WithGrid(2, 2), WithObserve()}
	switch variant {
	case "sanitize":
		opts = append(opts, WithSanitize())
	case "fault":
		opts = append(opts, WithFault(mustPlan(t, "drop=0.04,dup=0.03,seed=11")))
	}
	m, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	outS, outD := allocEach(t, m, "out", bpropOutN)
	inS, inD := allocEach(t, m, "in", bpropCells*bpropRegion)
	ginS, ginD := allocEach(t, m, "gin", bpropCells*bpropRegion)
	recvFlags := make([]FlagID, bpropCells)
	getFlags := make([]FlagID, bpropCells)
	for id := 0; id < bpropCells; id++ {
		c := m.Cell(CellID(id))
		recvFlags[id] = c.Flags.Alloc()
		getFlags[id] = c.Flags.Alloc()
	}

	mustRun(t, m, func(c *Cell) error {
		id := int(c.ID())
		comm := NewComm(c)
		for j := range outD[id] {
			outD[id][j] = float64(id*10000 + j)
		}
		c.HWBarrier() // every out buffer initialized before any GET reads it
		var b *CommandList
		switch mode {
		case 1:
			b = comm.Batch()
		case 2:
			b = comm.Batch().Coalesce()
		}
		lc, gc := 0, 0
		rc := make([]int, bpropCells)
		for _, op := range ops[id] {
			switch op.kind {
			case 0, 2:
				tr := Transfer{
					To:     CellID(op.dst),
					Remote: inS[op.dst].Base() + Addr((id*bpropRegion+rc[op.dst])*8),
					Local:  outS[id].Base() + Addr(lc*8),
					Size:   int64(op.n) * 8,
				}
				if op.kind == 0 {
					tr.Ack = true
				} else {
					tr.RecvFlag = recvFlags[op.dst]
				}
				if b != nil {
					b.Put(tr)
				} else if err := comm.Put(tr); err != nil {
					return err
				}
				lc += op.n
				rc[op.dst] += op.n
			case 1:
				tr := Transfer{
					To:     CellID(op.dst),
					Remote: inS[op.dst].Base() + Addr((id*bpropRegion+rc[op.dst])*8),
					Local:  outS[id].Base() + Addr(lc*8),
					Ack:    true,
				}
				sp := Stride{ItemSize: 8, Count: int64(op.n), Skip: 8}
				if b != nil {
					b.PutStride(tr, sp, Contiguous(int64(op.n)*8))
				} else if err := comm.PutStride(tr.To, tr.Remote, tr.Local,
					NoFlag, NoFlag, true, sp, Contiguous(int64(op.n)*8)); err != nil {
					return err
				}
				lc += 2 * op.n
				rc[op.dst] += op.n
			case 3:
				tr := Transfer{
					To:       CellID(op.dst),
					Remote:   outS[op.dst].Base() + Addr(op.slot*8),
					Local:    ginS[id].Base() + Addr(gc*8),
					Size:     int64(op.n) * 8,
					RecvFlag: getFlags[id],
				}
				if b != nil {
					b.Get(tr)
				} else if err := comm.Get(tr); err != nil {
					return err
				}
				gc += op.n
			}
		}
		if b != nil {
			if err := b.Commit(); err != nil {
				return err
			}
		}
		comm.AckWait()
		if flagsInto[id] > 0 {
			comm.WaitFlag(recvFlags[id], int64(flagsInto[id]))
		}
		if getsBy[id] > 0 {
			comm.WaitFlag(getFlags[id], int64(getsBy[id]))
		}
		return nil
	})

	snap := bpropSnapshot{
		In:        make([][]float64, bpropCells),
		Gin:       make([][]float64, bpropCells),
		RecvFlags: make([]int64, bpropCells),
		GetFlags:  make([]int64, bpropCells),
	}
	for id := 0; id < bpropCells; id++ {
		snap.In[id] = append([]float64(nil), inD[id]...)
		snap.Gin[id] = append([]float64(nil), ginD[id]...)
		snap.RecvFlags[id] = m.Cell(CellID(id)).Flags.Load(recvFlags[id])
		snap.GetFlags[id] = m.Cell(CellID(id)).Flags.Load(getFlags[id])
	}
	return snap, m.Metrics()
}

// TestBatchMatchesSingleIssue is the batching soundness property: for
// the same workload, batch and coalesced-batch issue are
// indistinguishable from single issue in memory contents and user
// flag counts — while coalescing provably shrinks the command stream.
func TestBatchMatchesSingleIssue(t *testing.T) {
	ops, flagsInto, getsBy := bpropWorkload(bpropSeed)
	expIn, expGin := bpropExpect(ops)
	for _, variant := range []string{"plain", "sanitize", "fault"} {
		t.Run(variant, func(t *testing.T) {
			single, ms := bpropRun(t, variant, 0, ops, flagsInto, getsBy)
			batch, _ := bpropRun(t, variant, 1, ops, flagsInto, getsBy)
			coal, mc := bpropRun(t, variant, 2, ops, flagsInto, getsBy)

			for id := 0; id < bpropCells; id++ {
				if !reflect.DeepEqual(single.In[id], expIn[id]) {
					t.Fatalf("cell %d: single-issue in-buffer diverges from the host replay", id)
				}
				if !reflect.DeepEqual(single.Gin[id], expGin[id]) {
					t.Fatalf("cell %d: single-issue gin-buffer diverges from the host replay", id)
				}
				if single.RecvFlags[id] != int64(flagsInto[id]) {
					t.Fatalf("cell %d: recv flag = %d, want %d", id, single.RecvFlags[id], flagsInto[id])
				}
				if single.GetFlags[id] != int64(getsBy[id]) {
					t.Fatalf("cell %d: get flag = %d, want %d", id, single.GetFlags[id], getsBy[id])
				}
			}
			for name, snap := range map[string]bpropSnapshot{"batch": batch, "coalesce": coal} {
				if !reflect.DeepEqual(snap, single) {
					t.Fatalf("%s run is not bit-identical to single issue", name)
				}
			}

			ts, tc := ms.Totals(), mc.Totals()
			singleCmds := ts.Put + ts.PutS + ts.AckGet
			coalCmds := tc.Put + tc.PutS + tc.AckGet
			if coalCmds >= singleCmds {
				t.Fatalf("coalescing did not shrink the command stream: %d vs %d", coalCmds, singleCmds)
			}
			t.Logf("%s: commands single=%d (PUT %d, PUTS %d, ackGET %d) coalesced=%d (PUT %d, PUTS %d, ackGET %d)",
				variant, singleCmds, ts.Put, ts.PutS, ts.AckGet, coalCmds, tc.Put, tc.PutS, tc.AckGet)
		})
	}
}

// coalesceSkeleton builds a communication skeleton's buffers on m and
// returns its per-step body; batched selects one coalescing
// CommandList per step over one doorbell per transfer.
type coalesceSkeleton func(t *testing.T, m *Machine) func(rt *Runtime, step int, batched bool) error

// coalesceCounts runs steps of sk on an observed 4x4 machine and
// returns the commands the MSC+ saw and the T-net messages carried.
func coalesceCounts(t *testing.T, sk coalesceSkeleton, steps int, batched bool) (cmds, msgs int64) {
	t.Helper()
	m, err := New(WithGrid(4, 4), WithMemoryPerCell(1<<22), WithObserve())
	if err != nil {
		t.Fatal(err)
	}
	step := sk(t, m)
	rts := newRuntimes(t, m)
	for _, rt := range rts {
		rt.SetBatching(batched)
	}
	mustRun(t, m, func(c *Cell) error {
		for s := 0; s < steps; s++ {
			if err := step(rts[c.ID()], s, batched); err != nil {
				return err
			}
		}
		return nil
	})
	mt := m.Metrics()
	tot := mt.Totals()
	return tot.Put + tot.PutS + tot.Get + tot.GetS + tot.AckGet, mt.TNet.Messages
}

// putRows issues ts singly or on one coalescing CommandList, then
// waits for their acknowledgements and a hardware barrier.
func putRows(rt *Runtime, batched bool, ts []Transfer) error {
	if batched {
		b := rt.Comm.Batch().Coalesce()
		for _, tr := range ts {
			b.Put(tr)
		}
		if err := b.Commit(); err != nil {
			return err
		}
	} else {
		for _, tr := range ts {
			if err := rt.Comm.Put(tr); err != nil {
				return err
			}
		}
	}
	rt.Comm.AckWait()
	rt.Barrier()
	return nil
}

// TestCoalesceCommandCounts pins the command stream of three skeletons
// on a q x q machine, in single and coalesced issue, as closed forms in
// the steps S, the cells P and the rows per cell R = ceil(edge/P). An
// acknowledged transfer costs two commands (PUT, ack GET) and three
// T-net messages (PUT, GET request, reply); coalescing folds the
// transfers of one step to one destination into one stride PUT and
// one ack. The skeletons: the Block2D halo exchange (w overlap rows or
// columns over each of the L directed links of the non-periodic
// process grid, plus two group tree barriers per step whose 2(q-1)
// remote token stores per group add 2·S·L messages), a row-block to
// column-block redistribution (R rows to each of the P-1 others) and
// the row-sliced ring matmul forward (R rows to the successor).
func TestCoalesceCommandCounts(t *testing.T) {
	const (
		q, S, edge = 4, 3, 48
		P          = q * q
		R          = (edge + P - 1) / P
		w          = 2
		L          = 4 * q * (q - 1)
	)
	for _, tc := range []struct {
		name            string
		sk              coalesceSkeleton
		single, batched int64 // commands
		barrierMsgs     int64
	}{
		{"stencil", func(t *testing.T, m *Machine) func(*Runtime, int, bool) error {
			a, err := NewBlock2D(m, "st.u", edge, edge, w)
			if err != nil {
				t.Fatal(err)
			}
			return func(rt *Runtime, _ int, _ bool) error { return rt.OverlapFixBlock2D(a) }
		}, 2 * S * L * w, 2 * S * L, 2 * S * L},
		{"redistribute", func(t *testing.T, m *Machine) func(*Runtime, int, bool) error {
			rows, _ := allocEach(t, m, "rd.rows", R*edge)
			cols, _ := allocEach(t, m, "rd.cols", edge*R)
			return func(rt *Runtime, _ int, batched bool) error {
				r := rt.Rank()
				var ts []Transfer
				for d := 0; d < P; d++ {
					// Row i's segment [d*R, (d+1)*R) lands at row
					// r*R+i of d's edge x R column slab.
					for i := 0; i < R && d != r; i++ {
						ts = append(ts, Transfer{To: CellID(d), Size: R * 8, Ack: true,
							Remote: cols[d].Base() + Addr((r*R+i)*R*8), Local: rows[r].Base() + Addr((i*edge+d*R)*8)})
					}
				}
				return putRows(rt, batched, ts)
			}
		}, 2 * S * P * (P - 1) * R, 2 * S * P * (P - 1), 0},
		{"matmul", func(t *testing.T, m *Machine) func(*Runtime, int, bool) error {
			blk, _ := allocEach(t, m, "mm.blk", 2*R*edge)
			return func(rt *Runtime, s int, batched bool) error {
				r, next := rt.Rank(), (rt.Rank()+1)%P
				// Double-buffer halves swap roles each step.
				src, dst := Addr(s%2*R*edge*8), Addr((s+1)%2*R*edge*8)
				ts := make([]Transfer, R)
				for i := range ts {
					row := Addr(i * edge * 8)
					ts[i] = Transfer{To: CellID(next), Size: edge * 8, Ack: true,
						Remote: blk[next].Base() + dst + row, Local: blk[r].Base() + src + row}
				}
				return putRows(rt, batched, ts)
			}
		}, 2 * S * P * R, 2 * S * P, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for batched, want := range map[bool]int64{false: tc.single, true: tc.batched} {
				cmds, msgs := coalesceCounts(t, tc.sk, S, batched)
				if cmds != want || msgs != want*3/2+tc.barrierMsgs {
					t.Errorf("batched=%v: %d commands, %d messages; want %d, %d",
						batched, cmds, msgs, want, want*3/2+tc.barrierMsgs)
				}
			}
		})
	}
}
