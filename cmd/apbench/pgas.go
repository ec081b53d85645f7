package main

import (
	"fmt"
	"io"
	"os"

	"ap1000plus/internal/apps"
)

// pgasRow is one line of the BENCH_pgas.json report: a bale kernel on
// the PGAS layer, naive one-command-per-operation issue vs exstack
// aggregation.
type pgasRow struct {
	Kernel    string // histogram | indexgather
	Mode      string // naive | agg
	Cells     int
	Ops       int64   // fine-grained PGAS operations the program issued
	Messages  int64   // total T-net messages
	MsgsPerOp float64 // Messages / Ops: ~2+ naive, amortized away by aggregation
	WallNS    int64   // wall-clock nanoseconds for the whole run
}

// runPGAS measures what aggregation buys on the bale fine-grained
// kernels: the same histogram and index-gather programs run naive
// (every update or gather is its own MSC+ command exchange) and
// aggregated (updates packed into per-destination regions, one bulk
// PUT per destination per round). Verify holds both times, so the
// message-count ratio is for bit-identical results.
func runPGAS(w io.Writer, quick bool, jsonPath string) error {
	obsWas := apps.Observe
	apps.Observe = true
	defer func() { apps.Observe = obsWas }()

	shapes := []int{16, 64}
	ops := 512
	if quick {
		shapes = []int{16}
		ops = 128
	}
	var rows []pgasRow
	for _, cells := range shapes {
		builders := []struct {
			kernel string
			build  func(mode apps.PGASMode) (*apps.Instance, error)
		}{
			{"histogram", func(mode apps.PGASMode) (*apps.Instance, error) {
				return apps.NewPGASHisto(apps.PGASHistoConfig{
					Cells: cells, Table: int64(cells) * 61, OpsPerCell: ops,
					Mode: mode, Seed: 42,
				})
			}},
			{"indexgather", func(mode apps.PGASMode) (*apps.Instance, error) {
				return apps.NewPGASIG(apps.PGASIGConfig{
					Cells: cells, Table: int64(cells) * 61, OpsPerCell: ops,
					Mode: mode, Seed: 7,
				})
			}},
		}
		for _, b := range builders {
			for _, mode := range []apps.PGASMode{apps.PGASNaive, apps.PGASAggregated} {
				in, err := b.build(mode)
				if err != nil {
					return fmt.Errorf("pgas/%s/%s: %w", b.kernel, mode, err)
				}
				fmt.Fprintf(os.Stderr, "running pgas %s %s on %d cells...\n", b.kernel, mode, cells)
				if _, err := in.Run(); err != nil {
					return fmt.Errorf("pgas/%s/%s: %w", b.kernel, mode, err)
				}
				mt := in.Machine.Metrics()
				r := pgasRow{
					Kernel: b.kernel, Mode: mode.String(), Cells: cells,
					Ops:      int64(cells) * int64(ops),
					Messages: mt.TNet.Messages,
					WallNS:   mt.WallNanos,
				}
				if r.Ops > 0 {
					r.MsgsPerOp = float64(r.Messages) / float64(r.Ops)
				}
				rows = append(rows, r)
			}
		}
	}

	fmt.Fprintln(w, "PGAS bale kernels: naive per-operation issue vs exstack aggregation:")
	fmt.Fprintf(w, "  %-12s %-6s %6s %9s %10s %9s %12s\n",
		"kernel", "mode", "cells", "ops", "messages", "msgs/op", "wall-ns")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %-6s %6d %9d %10d %9.3f %12d\n",
			r.Kernel, r.Mode, r.Cells, r.Ops, r.Messages, r.MsgsPerOp, r.WallNS)
	}
	fmt.Fprintln(w)

	return writeJSON(jsonPath, "pgas report", rows)
}
