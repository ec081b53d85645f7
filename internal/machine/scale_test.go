package machine

import (
	"testing"

	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// runNeighborRing builds a squarish torus of cells cells in which every
// cell PUTs size bytes to its right neighbour rounds times, waits for
// its own rounds arrivals, checks they came from its left neighbour and
// meets the others at one hardware barrier. It returns the machine and
// the hops the ring's messages travel, rounds·Σ distance(c, c+1).
func runNeighborRing(t *testing.T, cells, size, rounds int) (*Machine, int64) {
	t.Helper()
	tor, err := topology.SquarishTorus(cells)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t, Config{Width: tor.Width(), Height: tor.Height(), MemoryPerCell: 1 << 16, Observe: true})
	words := size / 8
	segs := make([]*mem.Segment, cells)
	flags := make([]mc.FlagID, cells)
	var hops int64
	for id := range segs {
		c := m.Cell(topology.CellID(id))
		if segs[id], _, err = c.AllocFloat64("ring", 2*words); err != nil {
			t.Fatal(err)
		}
		flags[id] = c.Flags.Alloc()
		hops += int64(rounds * tor.Distance(topology.CellID(id), topology.CellID((id+1)%cells)))
	}
	err = m.Run(func(c *Cell) error {
		me := int(c.ID())
		next := (me + 1) % cells
		data := segs[me].Float64Data()
		data[0] = float64(me)
		for i := 0; i < rounds; i++ {
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: topology.CellID(next),
				RAddr: segs[next].Base() + mem.Addr(size), LAddr: segs[me].Base(),
				RStride: mem.Contiguous(int64(size)), LStride: mem.Contiguous(int64(size)),
				RecvFlag: flags[next],
			})
		}
		c.Flags.Wait(flags[me], int64(rounds))
		if got := data[words]; got != float64((me-1+cells)%cells) {
			t.Errorf("cell %d received %v", me, got)
		}
		c.HWBarrier()
		return nil
	})
	if err != nil {
		t.Fatalf("%d cells: %v", cells, err)
	}
	return m, hops
}

// TestFullScaleMachine exercises the AP1000+'s upper limit: 1024 cells
// (32x32), a neighbour PUT and an S-net barrier per cell.
func TestFullScaleMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-cell machine in short mode")
	}
	m, _ := runNeighborRing(t, 1024, 8, 1)
	if m.TNetStats().Messages != 1024 || m.Barriers() != 1 {
		t.Errorf("messages = %d, barriers = %d; want 1024, 1", m.TNetStats().Messages, m.Barriers())
	}
}

// TestNeighborRingAtScale runs machines beyond 256 cells, up to
// topology.MaxCells, with a few rounds of 512 B right-neighbour PUTs.
// The wire must carry exactly cells·rounds messages of 512 B over
// exactly rounds·Σ distance(c, c+1) hops, finish with its drain
// invariant clean and return every pooled payload.
func TestNeighborRingAtScale(t *testing.T) {
	const payload, rounds = 512, 4
	for _, cells := range []int{1024, topology.MaxCells} {
		before := mem.PayloadsInFlight()
		m, hops := runNeighborRing(t, cells, payload, rounds)
		tn := m.Metrics().TNet
		if tn.Messages != int64(cells*rounds) || tn.Bytes != payload*tn.Messages || tn.HopsTotal != hops {
			t.Errorf("%d cells: %d messages, %d bytes, %d hops; want %d, %d, %d",
				cells, tn.Messages, tn.Bytes, tn.HopsTotal, cells*rounds, payload*cells*rounds, hops)
		}
		if err := m.DrainInvariantErr(); err != nil {
			t.Errorf("%d cells: %v", cells, err)
		}
		if after := mem.PayloadsInFlight(); after != before {
			t.Errorf("%d cells: payloads in flight %d -> %d", cells, before, after)
		}
	}
}
