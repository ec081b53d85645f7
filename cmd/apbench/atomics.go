package main

import (
	"fmt"
	"io"
	"os"

	"ap1000plus/internal/machine"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// atomicsRow is one line of the BENCH_atomics.json report: the hot
// fetch-and-add counter hammered from every cell, with T-net combining
// off or on.
type atomicsRow struct {
	Mode       string // uncombined | combined
	Cells      int
	Ops        int64   // fetch-and-adds the program issued
	AtomicMsgs int64   // atomic requests + replies the T-net carried
	Combined   int64   // requests absorbed into combining stations
	Messages   int64   // total T-net messages
	MsgsPerOp  float64 // AtomicMsgs / Ops: ~2 uncombined, falling as the tree combines
	WallNS     int64   // wall-clock nanoseconds for the whole run
}

// runAtomics measures the remote-atomic hot spot of the paper's
// fetch-and-increment generalization: every cell fetch-adds one shared
// counter. Uncombined, the owner sees O(n) requests per round; with
// in-network combining the same program drives O(log n) wire messages
// while producing bit-identical results — verified here by checking
// the exact final count both times.
func runAtomics(w io.Writer, quick bool, jsonPath string) error {
	shapes := []struct{ w, h int }{{4, 4}, {8, 8}}
	iters := 400
	if quick {
		iters = 100
	}
	var rows []atomicsRow
	for _, shape := range shapes {
		for _, mode := range []string{"uncombined", "combined"} {
			m, err := machine.New(machine.Config{
				Width: shape.w, Height: shape.h, MemoryPerCell: 1 << 20,
				Observe: true, Combining: mode == "combined",
			})
			if err != nil {
				return fmt.Errorf("atomics/%s: %w", mode, err)
			}
			np := m.Cells()
			seg, _, err := m.Cell(0).AllocFloat64("counter", 1)
			if err != nil {
				return fmt.Errorf("atomics/%s: %w", mode, err)
			}
			fmt.Fprintf(os.Stderr, "running atomics %s on %d cells...\n", mode, np)
			err = m.Run(func(c *machine.Cell) error {
				for i := 0; i < iters; i++ {
					if _, err := c.FetchAdd(topology.CellID(0), seg.Base(), 1); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("atomics/%s: %w", mode, err)
			}
			total, err := m.Cell(0).Mem.LoadWord8(seg.Base())
			if err != nil {
				return fmt.Errorf("atomics/%s: %w", mode, err)
			}
			if total != uint64(np*iters) {
				return fmt.Errorf("atomics/%s: counter = %d, want %d", mode, total, np*iters)
			}
			mt := m.Metrics()
			tot := mt.Totals()
			r := atomicsRow{
				Mode: mode, Cells: np,
				Ops:        int64(np * iters),
				AtomicMsgs: mt.TNet.PerOp[msc.OpAtomic] + mt.TNet.PerOp[msc.OpAtomicReply],
				Combined:   tot.AtomicsCombined,
				Messages:   mt.TNet.Messages,
				WallNS:     mt.WallNanos,
			}
			if r.Ops > 0 {
				r.MsgsPerOp = float64(r.AtomicMsgs) / float64(r.Ops)
			}
			rows = append(rows, r)
		}
	}

	fmt.Fprintln(w, "Remote atomics: hot fetch-and-add counter, T-net combining off vs on:")
	fmt.Fprintf(w, "  %-12s %6s %9s %12s %10s %10s %9s %12s\n",
		"mode", "cells", "ops", "atomic-msgs", "combined", "messages", "msgs/op", "wall-ns")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %6d %9d %12d %10d %10d %9.3f %12d\n",
			r.Mode, r.Cells, r.Ops, r.AtomicMsgs, r.Combined, r.Messages, r.MsgsPerOp, r.WallNS)
	}
	fmt.Fprintln(w)

	return writeJSON(jsonPath, "atomics report", rows)
}
