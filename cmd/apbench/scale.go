package main

import (
	"fmt"
	"io"
	"os"

	"ap1000plus/internal/core"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/topology"
)

// scaleRow is one line of the BENCH_scale.json report: the
// neighbor-PUT ring workload at one cell count.
type scaleRow struct {
	Cells      int
	Rounds     int     // PUTs issued per cell
	Messages   int64   // T-net messages carried
	Bytes      int64   // payload bytes delivered
	Hops       int64   // torus hops traversed
	WallNS     int64   // wall-clock nanoseconds for the whole run
	MsgsPerSec float64 // aggregate Messages / wall seconds
	NsPerHop   float64 // WallNS / Hops
}

// runScale is the weak-scaling gate of the wire: every cell PUTs a
// fixed payload to its right neighbor for a fixed number of rounds
// (work per cell constant), from 64 up to 4096 cells. The headline
// number is aggregate messages/sec, which should stay flat or rise
// with the cell count.
func runScale(w io.Writer, quick bool, jsonPath string) error {
	const payload = 512 // bytes per PUT
	rounds := 128
	if quick {
		rounds = 32
	}
	sizes := []int{64, 256, 1024, 4096}
	if quick {
		sizes = sizes[:len(sizes)-1] // skip 4096 in -quick
	}
	var rows []scaleRow
	for _, cells := range sizes {
		fmt.Fprintf(os.Stderr, "running scale on %d cells...\n", cells)
		cfg := machine.Config{
			MemoryPerCell: 1 << 16, // lazy commit: tiny working set per cell
			Observe:       true,
		}
		t, err := topology.SquarishTorus(cells)
		if err != nil {
			return fmt.Errorf("scale/%d: %w", cells, err)
		}
		cfg.Width, cfg.Height = t.Width(), t.Height()
		m, err := machine.New(cfg)
		if err != nil {
			return fmt.Errorf("scale/%d: %w", cells, err)
		}
		np := m.Cells()
		segs := make([]struct{ src, dst mem.Addr }, np)
		for id := 0; id < np; id++ {
			s, _, err := m.Cell(topology.CellID(id)).AllocBytes("src", payload)
			if err != nil {
				return fmt.Errorf("scale/%d: %w", cells, err)
			}
			d, _, err := m.Cell(topology.CellID(id)).AllocBytes("dst", payload)
			if err != nil {
				return fmt.Errorf("scale/%d: %w", cells, err)
			}
			segs[id] = struct{ src, dst mem.Addr }{s.Base(), d.Base()}
		}
		err = m.Run(func(c *machine.Cell) error {
			comm := core.New(c)
			right := topology.CellID((int(c.ID()) + 1) % np)
			recvFlag := mc.FlagID(3)
			for i := 0; i < rounds; i++ {
				if err := comm.Put(core.Transfer{
					To:     right,
					Remote: segs[right].dst, Local: segs[c.ID()].src,
					Size: payload, RecvFlag: recvFlag,
				}); err != nil {
					return err
				}
			}
			// Weak-scaling barrier by flag count: every cell waits for
			// its left neighbor's full stream before exiting.
			c.Flags.Wait(recvFlag, int64(rounds))
			return nil
		})
		if err != nil {
			return fmt.Errorf("scale/%d: %w", cells, err)
		}
		mt := m.Metrics()
		r := scaleRow{
			Cells: np, Rounds: rounds,
			Messages: mt.TNet.Messages,
			Bytes:    mt.TNet.Bytes,
			Hops:     mt.TNet.HopsTotal,
			WallNS:   mt.WallNanos,
		}
		if r.WallNS > 0 {
			r.MsgsPerSec = float64(r.Messages) / (float64(r.WallNS) / 1e9)
		}
		if r.Hops > 0 {
			r.NsPerHop = float64(r.WallNS) / float64(r.Hops)
		}
		rows = append(rows, r)
	}

	fmt.Fprintln(w, "Weak scaling: neighbor-PUT ring:")
	fmt.Fprintf(w, "  %6s %7s %10s %12s %14s %10s\n",
		"cells", "rounds", "messages", "wall-ns", "msgs/sec", "ns/hop")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6d %7d %10d %12d %14.0f %10.1f\n",
			r.Cells, r.Rounds, r.Messages, r.WallNS, r.MsgsPerSec, r.NsPerHop)
	}
	fmt.Fprintln(w)

	return writeJSON(jsonPath, "scale report", rows)
}
