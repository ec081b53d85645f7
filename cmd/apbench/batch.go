package main

import (
	"fmt"
	"io"

	"ap1000plus/internal/core"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/vpp"
)

// batchRow is one line of the BENCH_batch.json report: a workload run
// in one issue mode, with the command stream the MSC+ actually saw.
type batchRow struct {
	Workload string  // stencil | redistribute | matmul
	Mode     string  // single | batched
	Steps    int     // collective steps executed
	Commands int64   // PUT+PUTS+GET+GETS+ackGET issued machine-wide
	Messages int64   // T-net messages carried
	WallNS   int64   // wall-clock nanoseconds for the whole run
	NSPerOp  float64 // WallNS / Steps
}

// runBatch measures the batched-issue path: each workload runs once
// with every transfer issued under its own doorbell and once with the
// runtime's coalescing CommandLists, on identical inputs.
func runBatch(w io.Writer, quick bool, jsonPath string) error {
	steps, edge := 8, 96
	if quick {
		steps, edge = 3, 48
	}
	var rows []batchRow
	for _, wl := range []struct {
		name string
		run  func(batched bool) (*machine.Machine, error)
	}{
		{"stencil", func(b bool) (*machine.Machine, error) { return batchStencil(b, steps, edge) }},
		{"redistribute", func(b bool) (*machine.Machine, error) { return batchRedistribute(b, steps, edge) }},
		{"matmul", func(b bool) (*machine.Machine, error) { return batchMatMulRing(b, steps, edge) }},
	} {
		for _, mode := range []string{"single", "batched"} {
			m, err := wl.run(mode == "batched")
			if err != nil {
				return fmt.Errorf("%s/%s: %w", wl.name, mode, err)
			}
			mt := m.Metrics()
			tot := mt.Totals()
			rows = append(rows, batchRow{
				Workload: wl.name, Mode: mode, Steps: steps,
				Commands: tot.Put + tot.PutS + tot.Get + tot.GetS + tot.AckGet,
				Messages: mt.TNet.Messages,
				WallNS:   mt.WallNanos,
				NSPerOp:  float64(mt.WallNanos) / float64(steps),
			})
		}
	}

	fmt.Fprintln(w, "Batched issue (CommandList + coalescing) vs one doorbell per command:")
	fmt.Fprintf(w, "  %-12s %-8s %10s %10s %14s\n", "workload", "mode", "commands", "messages", "ns/step")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %-8s %10d %10d %14.0f\n", r.Workload, r.Mode, r.Commands, r.Messages, r.NSPerOp)
	}
	for i := 0; i+1 < len(rows); i += 2 {
		s, b := rows[i], rows[i+1]
		fmt.Fprintf(w, "  %-12s commands x%.2f fewer, ns/step x%.2f\n",
			s.Workload, float64(s.Commands)/float64(b.Commands), s.NSPerOp/b.NSPerOp)
	}
	fmt.Fprintln(w)

	return writeJSON(jsonPath, "batch report", rows)
}

// batchMachine builds the common 4x4 observed machine.
func batchMachine() (*machine.Machine, error) {
	return machine.New(machine.Config{Width: 4, Height: 4, MemoryPerCell: 1 << 22, Observe: true})
}

// batchVPP runs a vpp program on every cell with batching on or off.
func batchVPP(m *machine.Machine, batched bool, body func(rt *vpp.Runtime) error) error {
	rts := make([]*vpp.Runtime, m.Cells())
	for id := range rts {
		rt, err := vpp.NewRuntime(m.Cell(topology.CellID(id)))
		if err != nil {
			return err
		}
		rt.SetBatching(batched)
		rts[id] = rt
	}
	return m.Run(func(c *machine.Cell) error { return body(rts[c.ID()]) })
}

// batchStencil is the overlap-area exchange of a square Block2D grid:
// per step each cell swaps halo rows and columns with its four
// neighbours — the workload where per-row PUTs coalesce into one
// stride PUT per neighbour.
func batchStencil(batched bool, steps, edge int) (*machine.Machine, error) {
	m, err := batchMachine()
	if err != nil {
		return nil, err
	}
	a, err := vpp.NewBlock2D(m, "st.u", edge, edge, 2)
	if err != nil {
		return nil, err
	}
	err = batchVPP(m, batched, func(rt *vpp.Runtime) error {
		for s := 0; s < steps; s++ {
			if err := rt.OverlapFixBlock2D(a); err != nil {
				return err
			}
		}
		return nil
	})
	return m, err
}

// batchRedistribute is the S1.1 matrix redistribution: an edge x edge
// matrix moves from row-block to column-block layout, so every cell
// sends each destination one segment per owned row. Coalescing folds
// a destination's row segments into a single stride PUT and its
// acknowledgements into one ack GET.
func batchRedistribute(batched bool, steps, edge int) (*machine.Machine, error) {
	m, err := batchMachine()
	if err != nil {
		return nil, err
	}
	np := m.Cells()
	rows := (edge + np - 1) / np // owned rows (row-block side)
	cols := rows                 // owned columns (column-block side)
	rowSegs := make([]*mem.Segment, np)
	colSegs := make([]*mem.Segment, np)
	for id := 0; id < np; id++ {
		c := m.Cell(topology.CellID(id))
		seg, data, err := c.AllocFloat64("rd.rows", rows*edge)
		if err != nil {
			return nil, err
		}
		for i := range data {
			data[i] = float64(id*len(data) + i)
		}
		rowSegs[id] = seg
		if colSegs[id], _, err = c.AllocFloat64("rd.cols", edge*cols); err != nil {
			return nil, err
		}
	}
	err = batchVPP(m, batched, func(rt *vpp.Runtime) error {
		r := rt.Rank()
		comm := rt.Comm
		for s := 0; s < steps; s++ {
			var b *core.CommandList
			if batched {
				b = comm.Batch().Coalesce()
			}
			for d := 0; d < np; d++ {
				if d == r {
					continue
				}
				// Row i's segment [d*cols, (d+1)*cols) lands at row
				// r*rows+i of d's edge x cols column slab.
				for i := 0; i < rows; i++ {
					t := core.Transfer{
						To:     topology.CellID(d),
						Remote: colSegs[d].Base() + mem.Addr(((r*rows+i)*cols)*8),
						Local:  rowSegs[r].Base() + mem.Addr((i*edge+d*cols)*8),
						Size:   int64(cols) * 8,
						Ack:    true,
					}
					if b != nil {
						b.Put(t)
					} else if err := comm.Put(t); err != nil {
						return err
					}
				}
			}
			if b != nil {
				if err := b.Commit(); err != nil {
					return err
				}
			}
			comm.AckWait()
			rt.Barrier()
		}
		return nil
	})
	return m, err
}

// batchMatMulRing is the communication skeleton of the S5.2 ring
// matmul with a row-sliced forward: per step each cell sends its
// travelling block to the ring successor row by row. Batched, the
// whole step stages on one coalescing CommandList and reaches the
// MSC+ as a single doorbell.
func batchMatMulRing(batched bool, steps, edge int) (*machine.Machine, error) {
	m, err := batchMachine()
	if err != nil {
		return nil, err
	}
	np := m.Cells()
	rows := (edge + np - 1) / np
	segs := make([]*mem.Segment, np)
	for id := 0; id < np; id++ {
		seg, data, err := m.Cell(topology.CellID(id)).AllocFloat64("mm.blk", 2*rows*edge)
		if err != nil {
			return nil, err
		}
		for i := range data {
			data[i] = float64(id*len(data) + i)
		}
		segs[id] = seg
	}
	err = batchVPP(m, batched, func(rt *vpp.Runtime) error {
		r := rt.Rank()
		next := (r + 1) % np
		comm := rt.Comm
		rowBytes := int64(edge) * 8
		for s := 0; s < steps; s++ {
			// Double-buffer halves swap roles each step.
			src := mem.Addr((s % 2) * rows * edge * 8)
			dst := mem.Addr(((s + 1) % 2) * rows * edge * 8)
			var b *core.CommandList
			if batched {
				b = comm.Batch().Coalesce()
			}
			for i := 0; i < rows; i++ {
				t := core.Transfer{
					To:     topology.CellID(next),
					Remote: segs[next].Base() + dst + mem.Addr(i)*mem.Addr(rowBytes),
					Local:  segs[r].Base() + src + mem.Addr(i)*mem.Addr(rowBytes),
					Size:   rowBytes,
					Ack:    true,
				}
				if b != nil {
					b.Put(t)
				} else if err := comm.Put(t); err != nil {
					return err
				}
			}
			if b != nil {
				if err := b.Commit(); err != nil {
					return err
				}
			}
			comm.AckWait()
			rt.Barrier()
		}
		return nil
	})
	return m, err
}
