package machine

import (
	"errors"
	"testing"

	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// TestUnreachableDestinationFaults sends each kind of remote command
// from cell 0 to a cell its MSC+ cannot address — one that does not
// exist, or one in another partition — and requires the command to
// come back as one page fault on cell 0: every blocking call and fence
// returns, and the host process lives on.
func TestUnreachableDestinationFaults(t *testing.T) {
	const invalid = topology.CellID(9)
	crossPartition := func(m *Machine) topology.CellID {
		for id := 0; id < m.Cells(); id++ {
			if m.PartitionOf(topology.CellID(id)) != m.PartitionOf(0) {
				return topology.CellID(id)
			}
		}
		t.Fatal("no cell outside partition 0")
		return 0
	}
	put := func(c *Cell, dst topology.CellID, seg *mem.Segment) error {
		c.PushUser(msc.Command{
			Op: msc.OpPut, Dst: dst,
			RAddr: seg.Base(), LAddr: seg.Base(),
			RStride: mem.Contiguous(8), LStride: mem.Contiguous(8),
		})
		return nil
	}
	for _, row := range []struct {
		name       string
		partitions int
		cross      bool
		op         func(c *Cell, dst topology.CellID, seg *mem.Segment) error
		wantErr    bool
	}{
		{name: "put to invalid cell", op: put},
		{name: "put across partitions", partitions: 2, cross: true, op: put},
		{name: "remote load", op: func(c *Cell, dst topology.CellID, seg *mem.Segment) error {
			_, err := c.RemoteLoad(dst, seg.Base(), 8)
			return err
		}, wantErr: true},
		{name: "fetch-add across partitions", partitions: 2, cross: true, op: func(c *Cell, dst topology.CellID, seg *mem.Segment) error {
			_, err := c.FetchAdd(dst, seg.Base(), 1)
			return err
		}, wantErr: true},
		{name: "atomic add then fence", op: func(c *Cell, dst topology.CellID, seg *mem.Segment) error {
			c.AtomicAdd(dst, seg.Base(), 1)
			c.FenceAtomics()
			return nil
		}},
		{name: "remote store then fence", op: func(c *Cell, dst topology.CellID, seg *mem.Segment) error {
			c.RemoteStore(dst, seg.Base(), seg.Base(), 8)
			c.FenceRemoteStores()
			return nil
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			m := newMachine(t, Config{Partitions: row.partitions})
			seg, _, err := m.Cell(0).AllocFloat64("buf", 1)
			if err != nil {
				t.Fatal(err)
			}
			dst := invalid
			if row.cross {
				dst = crossPartition(m)
			}
			var opErr error
			err = m.Run(func(c *Cell) error {
				if c.ID() == 0 {
					opErr = row.op(c, dst, seg)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if (opErr != nil) != row.wantErr {
				t.Errorf("op error %v, want error %v", opErr, row.wantErr)
			}
			o := m.Cell(0).OS
			faults := o.Faults()
			if len(faults) != 1 || !errors.Is(faults[0], ErrBadAddress) {
				t.Fatalf("cell 0 fault log %v, want one bad-address fault", faults)
			}
			if n := o.Interrupts(IntrPageFault); n != 1 {
				t.Errorf("cell 0 page-fault interrupts = %d, want 1", n)
			}
			if n := m.TNetStats().Messages; n != 0 {
				t.Errorf("%d messages reached the network", n)
			}
		})
	}
}
