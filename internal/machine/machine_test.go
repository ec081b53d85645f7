package machine

import (
	"strings"
	"sync/atomic"
	"testing"

	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

func newMachine(t testing.TB, cfg Config) *Machine {
	t.Helper()
	if cfg.Width == 0 {
		cfg.Width, cfg.Height = 2, 2
	}
	if cfg.MemoryPerCell == 0 {
		cfg.MemoryPerCell = 1 << 20
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTable1Spec(t *testing.T) {
	s := Table1()
	if s.Processor != "SuperSPARC" || s.ClockMHz != 50 || s.MaxCells != 1024 {
		t.Errorf("spec = %+v", s)
	}
	if s.PeakGFLOPSAtMax != 51.2 {
		t.Errorf("peak = %v", s.PeakGFLOPSAtMax)
	}
}

// TestPutDeliversWithFlags drives a raw PUT through the MSC+ path:
// data lands in remote memory, send flag rises on the sender, recv
// flag on the receiver.
func TestPutDeliversWithFlags(t *testing.T) {
	m := newMachine(t, Config{})
	type cellState struct {
		seg  *mem.Segment
		data []float64
		sf   mc.FlagID
		rf   mc.FlagID
	}
	states := make([]cellState, 4)
	// Setup phase must predate Run's program for cross-cell address
	// knowledge; allocate identically on every cell.
	for id := 0; id < 4; id++ {
		c := m.Cell(topology.CellID(id))
		seg, data, err := c.AllocFloat64("buf", 8)
		if err != nil {
			t.Fatal(err)
		}
		states[id] = cellState{seg: seg, data: data, sf: c.Flags.Alloc(), rf: c.Flags.Alloc()}
	}
	err := m.Run(func(c *Cell) error {
		st := states[c.ID()]
		if c.ID() == 0 {
			for i := range st.data {
				st.data[i] = float64(i + 1)
			}
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: 1,
				RAddr: states[1].seg.Base(), LAddr: st.seg.Base(),
				RStride: mem.Contiguous(64), LStride: mem.Contiguous(64),
				SendFlag: st.sf, RecvFlag: states[1].rf,
			})
			c.Flags.Wait(st.sf, 1)
		}
		if c.ID() == 1 {
			c.Flags.Wait(st.rf, 1)
			for i, v := range st.data {
				if v != float64(i+1) {
					t.Errorf("cell 1 data[%d] = %v", i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.TNetStats().Messages != 1 || m.TNetStats().Bytes != 64 {
		t.Errorf("tnet stats = %+v", m.TNetStats())
	}
}

// TestGetRoundTrip: cell 0 GETs data owned by cell 2; both flags rise.
func TestGetRoundTrip(t *testing.T) {
	m := newMachine(t, Config{})
	segs := make([]*mem.Segment, 4)
	datas := make([][]float64, 4)
	for id := 0; id < 4; id++ {
		c := m.Cell(topology.CellID(id))
		seg, data, _ := c.AllocFloat64("buf", 4)
		segs[id], datas[id] = seg, data
	}
	// Requester-side recv flag; remote-side send flag.
	rf := m.Cell(0).Flags.Alloc()
	sfRemote := m.Cell(2).Flags.Alloc()
	err := m.Run(func(c *Cell) error {
		if c.ID() == 2 {
			for i := range datas[2] {
				datas[2][i] = 7.5 * float64(i)
			}
		}
		c.HWBarrier() // data ready everywhere
		if c.ID() == 0 {
			c.PushUser(msc.Command{
				Op: msc.OpGet, Dst: 2,
				RAddr: segs[2].Base(), LAddr: segs[0].Base(),
				RStride: mem.Contiguous(32), LStride: mem.Contiguous(32),
				SendFlag: sfRemote, RecvFlag: rf,
			})
			c.Flags.Wait(rf, 1)
			for i, v := range datas[0] {
				if v != 7.5*float64(i) {
					t.Errorf("got[%d] = %v", i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cell(2).Flags.Load(sfRemote) != 1 {
		t.Error("remote send flag did not rise")
	}
	// GET = request + reply on the wire.
	if m.TNetStats().Messages != 2 {
		t.Errorf("messages = %d", m.TNetStats().Messages)
	}
}

// TestGetAsAcknowledge reproduces the S4.1 trick: a PUT followed by a
// zero-address GET to the same destination; when the GET reply
// arrives, the PUT is known to be complete (static routing = in-order
// delivery).
func TestGetAsAcknowledge(t *testing.T) {
	m := newMachine(t, Config{})
	segs := make([]*mem.Segment, 4)
	for id := 0; id < 4; id++ {
		seg, _, _ := m.Cell(topology.CellID(id)).AllocFloat64("buf", 4)
		segs[id] = seg
	}
	err := m.Run(func(c *Cell) error {
		if c.ID() != 0 {
			return nil
		}
		src := segs[0].Base()
		c.PushUser(msc.Command{
			Op: msc.OpPut, Dst: 3,
			RAddr: segs[3].Base(), LAddr: src,
			RStride: mem.Contiguous(32), LStride: mem.Contiguous(32),
		})
		// Acknowledge GET: address 0, ack flag.
		c.PushUser(msc.Command{
			Op: msc.OpGet, Dst: 3,
			RAddr: 0, LAddr: 0,
			RStride: mem.Contiguous(1), LStride: mem.Contiguous(1),
			RecvFlag: mc.AckFlagID,
		})
		c.Flags.Wait(mc.AckFlagID, 1)
		// PUT must have been delivered by now.
		if got := segs[3].Float64Data(); got[0] != segs[0].Float64Data()[0] {
			t.Error("ack arrived before PUT delivery")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStridePutThroughMachine(t *testing.T) {
	m := newMachine(t, Config{})
	segs := make([]*mem.Segment, 4)
	datas := make([][]float64, 4)
	for id := 0; id < 4; id++ {
		seg, data, _ := m.Cell(topology.CellID(id)).AllocFloat64("m", 16)
		segs[id], datas[id] = seg, data
	}
	rf := m.Cell(1).Flags.Alloc()
	err := m.Run(func(c *Cell) error {
		if c.ID() == 0 {
			for i := range datas[0] {
				datas[0][i] = float64(i)
			}
			// Send every 4th element (a "column"), deliver contiguous.
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: 1,
				RAddr: segs[1].Base(), LAddr: segs[0].Base(),
				LStride:  mem.Stride{ItemSize: 8, Count: 4, Skip: 24},
				RStride:  mem.Contiguous(32),
				RecvFlag: rf,
			})
		}
		if c.ID() == 1 {
			c.Flags.Wait(rf, 1)
			for i := 0; i < 4; i++ {
				if datas[1][i] != float64(i*4) {
					t.Errorf("recv[%d] = %v", i, datas[1][i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemoteStoreAndLoad(t *testing.T) {
	m := newMachine(t, Config{})
	segs := make([]*mem.Segment, 4)
	datas := make([][]float64, 4)
	for id := 0; id < 4; id++ {
		seg, data, _ := m.Cell(topology.CellID(id)).AllocFloat64("dsm", 4)
		segs[id], datas[id] = seg, data
	}
	err := m.Run(func(c *Cell) error {
		if c.ID() == 0 {
			datas[0][0] = 99.5
			c.RemoteStore(2, segs[2].Base(), segs[0].Base(), 8)
			c.Flags.Wait(mc.RemoteAckFlagID, 1) // auto-acknowledged
			// Now load it back from cell 2.
			p, err := c.RemoteLoad(2, segs[2].Base(), 8)
			if err != nil {
				return err
			}
			vals, ok := p.Float64s()
			if !ok || vals[0] != 99.5 {
				t.Errorf("remote load = %v, %v", vals, ok)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutToUnmappedAddressFaults(t *testing.T) {
	m := newMachine(t, Config{})
	seg, _, _ := m.Cell(0).AllocFloat64("buf", 4)
	err := m.Run(func(c *Cell) error {
		if c.ID() == 0 {
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: 1,
				RAddr: mem.Addr(0x700000), LAddr: seg.Base(),
				RStride: mem.Contiguous(32), LStride: mem.Contiguous(32),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The receiving cell takes the page-fault interrupt (S4.1).
	if n := m.Cell(1).OS.Interrupts(IntrPageFault); n != 1 {
		t.Errorf("cell 1 page-fault interrupts = %d", n)
	}
	if len(m.Cell(1).OS.Faults()) == 0 {
		t.Error("fault log empty")
	}
}

func TestLocalSendFaultDropsCommand(t *testing.T) {
	m := newMachine(t, Config{})
	err := m.Run(func(c *Cell) error {
		if c.ID() == 0 {
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: 1,
				RAddr: 0x100000, LAddr: 0x200000, // both unmapped
				RStride: mem.Contiguous(8), LStride: mem.Contiguous(8),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Cell(0).OS.Interrupts(IntrPageFault); n != 1 {
		t.Errorf("sender page-fault interrupts = %d", n)
	}
	if m.TNetStats().Messages != 0 {
		t.Error("faulting command must not reach the network")
	}
}

func TestQueueOverflowSpills(t *testing.T) {
	m := newMachine(t, Config{})
	segs := make([]*mem.Segment, 4)
	for id := 0; id < 4; id++ {
		seg, _, _ := m.Cell(topology.CellID(id)).AllocFloat64("b", 1024)
		segs[id] = seg
	}
	rf := m.Cell(1).Flags.Alloc()
	const puts = 200
	err := m.Run(func(c *Cell) error {
		if c.ID() == 0 {
			for i := 0; i < puts; i++ {
				c.PushUser(msc.Command{
					Op: msc.OpPut, Dst: 1,
					RAddr: segs[1].Base(), LAddr: segs[0].Base(),
					RStride: mem.Contiguous(8), LStride: mem.Contiguous(8),
					RecvFlag: rf,
				})
			}
		}
		if c.ID() == 1 {
			c.Flags.Wait(rf, puts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Cell(0).MSC.Stats().UserSend
	if s.Pushes != puts {
		t.Errorf("pushes = %d", s.Pushes)
	}
	// The CPU raced the controller; whether spills occurred depends on
	// scheduling, but every command must have been popped.
	if s.Pops != puts {
		t.Errorf("pops = %d", s.Pops)
	}
	if m.Cell(1).Flags.Load(rf) != puts {
		t.Errorf("recv flag = %d", m.Cell(1).Flags.Load(rf))
	}
}

func TestHWBarrier(t *testing.T) {
	m := newMachine(t, Config{})
	var phase atomic.Int64
	err := m.Run(func(c *Cell) error {
		phase.Add(1)
		c.HWBarrier()
		if phase.Load() != 4 {
			t.Error("barrier released early")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Barriers() != 1 {
		t.Errorf("barriers = %d", m.Barriers())
	}
}

func TestBroadcastOverBnet(t *testing.T) {
	m := newMachine(t, Config{})
	seg, data, _ := m.Cell(0).AllocFloat64("b", 2)
	err := m.Run(func(c *Cell) error {
		if c.ID() == 0 {
			data[0], data[1] = 3.5, -1.25
			if err := c.Broadcast(seg.Base(), 16, 42); err != nil {
				return err
			}
		}
		p := c.RecvBroadcast(42)
		vals, ok := p.Float64s()
		if !ok || vals[0] != 3.5 || vals[1] != -1.25 {
			t.Errorf("cell %d broadcast = %v", c.ID(), vals)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.BNetStats(); s.Broadcasts != 1 {
		t.Errorf("bnet stats = %+v", s)
	}
}

func TestTraceRecording(t *testing.T) {
	m := newMachine(t, Config{TraceApp: "test"})
	g := m.DefineGroup(topology.Row(m.Torus(), 0))
	err := m.Run(func(c *Cell) error {
		c.RecordCompute(5.0)
		if c.Recorder() == nil {
			t.Error("recorder missing under tracing")
			return nil
		}
		c.Recorder().Put(0, 64, 1, 0, 0, false, false)
		c.Recorder().Barrier(trace.AllGroup)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := m.Trace()
	if ts == nil {
		t.Fatal("trace missing")
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(ts.Meta.Groups); got != 2 {
		t.Fatalf("groups = %d", got)
	}
	if len(ts.Group(g)) != 2 {
		t.Fatalf("row group size = %d", len(ts.Group(g)))
	}
	row := trace.Stats(ts)
	if row.Put != 1 || row.Sync != 1 || row.ComputeUs != 5 {
		t.Errorf("stats = %+v", row)
	}
}

func TestTraceDisabled(t *testing.T) {
	m := newMachine(t, Config{})
	if m.Trace() != nil {
		t.Error("trace should be nil when disabled")
	}
	err := m.Run(func(c *Cell) error {
		if c.Recorder() != nil {
			t.Error("recorder should be nil")
		}
		c.RecordCompute(1) // must be a safe no-op
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	m := newMachine(t, Config{})
	err := m.Run(func(c *Cell) error {
		if c.ID() == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunDrainsInFlight(t *testing.T) {
	// Fire PUTs with no flags and return immediately; Run must still
	// deliver everything before returning.
	m := newMachine(t, Config{})
	segs := make([]*mem.Segment, 4)
	for id := 0; id < 4; id++ {
		seg, _, _ := m.Cell(topology.CellID(id)).AllocFloat64("b", 4)
		segs[id] = seg
	}
	err := m.Run(func(c *Cell) error {
		if c.ID() == 0 {
			for i := 0; i < 50; i++ {
				c.PushUser(msc.Command{
					Op: msc.OpPut, Dst: 3,
					RAddr: segs[3].Base(), LAddr: segs[0].Base(),
					RStride: mem.Contiguous(8), LStride: mem.Contiguous(8),
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TNetStats().Messages; got != 50 {
		t.Errorf("messages delivered = %d, want 50", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Width: 1, Height: 1}); err == nil {
		t.Error("1 cell should be rejected")
	}
	if _, err := New(Config{Width: 2, Height: 2, MemoryPerCell: -5}); err == nil {
		t.Error("negative memory should be rejected")
	}
}

func BenchmarkPutRoundTrip(b *testing.B) {
	// A 1 KB PUT ping-pong between two cells through the full MSC+
	// path, synchronized by receive flags.
	m := newMachine(b, Config{})
	segs := make([]*mem.Segment, 4)
	for id := 0; id < 4; id++ {
		seg, _, _ := m.Cell(topology.CellID(id)).AllocFloat64("b", 128)
		segs[id] = seg
	}
	rf0 := m.Cell(0).Flags.Alloc()
	rf1 := m.Cell(1).Flags.Alloc()
	b.ReportAllocs()
	err := m.Run(func(c *Cell) error {
		switch c.ID() {
		case 0:
			for i := 0; i < b.N; i++ {
				c.PushUser(msc.Command{
					Op: msc.OpPut, Dst: 1,
					RAddr: segs[1].Base(), LAddr: segs[0].Base(),
					RStride: mem.Contiguous(1024), LStride: mem.Contiguous(1024),
					RecvFlag: rf1,
				})
				c.Flags.Wait(rf0, int64(i+1))
			}
		case 1:
			for i := 0; i < b.N; i++ {
				c.Flags.Wait(rf1, int64(i+1))
				c.PushUser(msc.Command{
					Op: msc.OpPut, Dst: 0,
					RAddr: segs[0].Base(), LAddr: segs[1].Base(),
					RStride: mem.Contiguous(1024), LStride: mem.Contiguous(1024),
					RecvFlag: rf0,
				})
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestRunSequentialLegal pins the reusable-machine contract: back-to-
// back Run calls on one machine succeed (the gang scheduler reuses
// machines across jobs), while concurrent Run calls still collide on
// the open latch.
func TestRunSequentialLegal(t *testing.T) {
	m := newMachine(t, Config{})
	for job := 0; job < 3; job++ {
		if err := m.Run(func(c *Cell) error { return nil }); err != nil {
			t.Fatalf("run %d: %v", job, err)
		}
	}
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	if err := m.Open(); err == nil {
		t.Fatal("double Open must be rejected")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err == nil {
		t.Fatal("double Close must be rejected")
	}
}

func TestCacheInvalidationAccounting(t *testing.T) {
	m := newMachine(t, Config{})
	segs := make([]*mem.Segment, 4)
	for id := 0; id < 4; id++ {
		segs[id], _, _ = m.Cell(topology.CellID(id)).AllocFloat64("b", 128)
	}
	rf := m.Cell(1).Flags.Alloc()
	err := m.Run(func(c *Cell) error {
		if c.ID() == 0 {
			// 1000 bytes = 32 cache lines (ceil(1000/32)).
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: 1,
				RAddr: segs[1].Base(), LAddr: segs[0].Base(),
				RStride: mem.Contiguous(1000), LStride: mem.Contiguous(1000),
				RecvFlag: rf,
			})
		}
		if c.ID() == 1 {
			c.Flags.Wait(rf, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Cell(1).CacheInvalidations(); got != 32 {
		t.Errorf("invalidated lines = %d, want 32", got)
	}
	if got := m.Cell(0).CacheInvalidations(); got != 0 {
		t.Errorf("sender invalidations = %d, want 0", got)
	}
}
