package core

import (
	"errors"
	"strings"
	"testing"

	"ap1000plus/internal/machine"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// fixture builds a 2x2 machine with one float64 segment per cell.
type fixture struct {
	m     *machine.Machine
	segs  []*mem.Segment
	datas [][]float64
}

func newFixture(t testing.TB, traceApp string, elems int) *fixture {
	t.Helper()
	m, err := machine.New(machine.Config{Width: 2, Height: 2, MemoryPerCell: 1 << 22, TraceApp: traceApp})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{m: m}
	for id := 0; id < 4; id++ {
		seg, data, err := m.Cell(topology.CellID(id)).AllocFloat64("buf", elems)
		if err != nil {
			t.Fatal(err)
		}
		f.segs = append(f.segs, seg)
		f.datas = append(f.datas, data)
	}
	return f
}

func TestPutWithFlags(t *testing.T) {
	f := newFixture(t, "", 8)
	rf := f.m.Cell(1).Flags.Alloc()
	sf := f.m.Cell(0).Flags.Alloc()
	err := f.m.Run(func(cell *machine.Cell) error {
		c := New(cell)
		switch cell.ID() {
		case 0:
			for i := range f.datas[0] {
				f.datas[0][i] = float64(i) + 0.5
			}
			if err := c.Put(Transfer{To: 1, Remote: f.segs[1].Base(), Local: f.segs[0].Base(), Size: 64, SendFlag: sf, RecvFlag: rf}); err != nil {
				return err
			}
			c.WaitFlag(sf, 1)
		case 1:
			c.WaitFlag(rf, 1)
			for i, v := range f.datas[1] {
				if v != float64(i)+0.5 {
					t.Errorf("data[%d] = %v", i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAckAndBarrierModel(t *testing.T) {
	// Every cell writes one value into every other cell, uses
	// AckWait + Barrier, then checks what it received — the data
	// parallel pattern of S2.2, with no per-transfer receive flags.
	f := newFixture(t, "", 8)
	err := f.m.Run(func(cell *machine.Cell) error {
		c := New(cell)
		me := int(cell.ID())
		f.datas[me][4+me] = 100 + float64(me) // slot to publish
		for dst := 0; dst < 4; dst++ {
			if dst == me {
				continue
			}
			// Write my value into slot `me` of dst's array.
			raddr := f.segs[dst].Base() + mem.Addr(me*8)
			laddr := f.segs[me].Base() + mem.Addr((4+me)*8)
			if err := c.WriteRemote(topology.CellID(dst), raddr, laddr, 8); err != nil {
				return err
			}
		}
		if c.AcksIssued() != 3 {
			t.Errorf("cell %d acks issued = %d", me, c.AcksIssued())
		}
		c.AckWait()
		c.Barrier()
		for src := 0; src < 4; src++ {
			if src == me {
				continue
			}
			if got := f.datas[me][src]; got != 100+float64(src) {
				t.Errorf("cell %d slot %d = %v", me, src, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadRemoteBlocking(t *testing.T) {
	f := newFixture(t, "", 8)
	err := f.m.Run(func(cell *machine.Cell) error {
		c := New(cell)
		if cell.ID() == 3 {
			f.datas[3][0] = 77.25
		}
		c.Barrier()
		if cell.ID() == 0 {
			// Two sequential blocking reads through one flag.
			if err := c.ReadRemote(3, f.segs[3].Base(), f.segs[0].Base(), 8); err != nil {
				return err
			}
			if f.datas[0][0] != 77.25 {
				t.Errorf("first read = %v", f.datas[0][0])
			}
			if err := c.ReadRemote(3, f.segs[3].Base(), f.segs[0].Base()+8, 8); err != nil {
				return err
			}
			if f.datas[0][1] != 77.25 {
				t.Errorf("second read = %v", f.datas[0][1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutStrideGetStride(t *testing.T) {
	f := newFixture(t, "", 16)
	rf := f.m.Cell(1).Flags.Alloc()
	gf := f.m.Cell(0).Flags.Alloc()
	err := f.m.Run(func(cell *machine.Cell) error {
		c := New(cell)
		switch cell.ID() {
		case 0:
			for i := range f.datas[0] {
				f.datas[0][i] = float64(i)
			}
			// Scatter: contiguous 4 elements -> every 4th slot at dst.
			err := c.PutStride(1, f.segs[1].Base(), f.segs[0].Base(), mc.NoFlag, rf, false,
				mem.Contiguous(32), mem.Stride{ItemSize: 8, Count: 4, Skip: 24})
			if err != nil {
				return err
			}
			// Gather back: every 4th slot at dst -> contiguous here.
			err = c.GetStride(1, f.segs[1].Base(), f.segs[0].Base()+8*8, mc.NoFlag, gf,
				mem.Stride{ItemSize: 8, Count: 4, Skip: 24}, mem.Contiguous(32))
			if err != nil {
				return err
			}
			c.WaitFlag(gf, 1)
			for i := 0; i < 4; i++ {
				if f.datas[0][8+i] != float64(i) {
					t.Errorf("gathered[%d] = %v", i, f.datas[0][8+i])
				}
			}
		case 1:
			c.WaitFlag(rf, 1)
			for i := 0; i < 4; i++ {
				if f.datas[1][i*4] != float64(i) {
					t.Errorf("scattered[%d] = %v", i*4, f.datas[1][i*4])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	f := newFixture(t, "", 8)
	err := f.m.Run(func(cell *machine.Cell) error {
		if cell.ID() != 0 {
			return nil
		}
		c := New(cell)
		cases := []struct {
			name string
			err  error
			want error
		}{
			{"bad dst", c.Put(Transfer{To: 99, Remote: f.segs[0].Base(), Local: f.segs[0].Base(), Size: 8}), ErrBadAddress},
			{"zero size", c.Put(Transfer{To: 1, Remote: f.segs[1].Base(), Local: f.segs[0].Base(), Size: 0}), ErrBadStride},
			{"negative size", c.Put(Transfer{To: 1, Remote: f.segs[1].Base(), Local: f.segs[0].Base(), Size: -8}), ErrBadStride},
			{"huge", c.Put(Transfer{To: 1, Remote: f.segs[1].Base(), Local: f.segs[0].Base(), Size: MaxTransfer + 1}), ErrBadStride},
			{"mismatch", c.PutStride(1, f.segs[1].Base(), f.segs[0].Base(), 0, 0, false,
				mem.Contiguous(16), mem.Contiguous(32)), ErrBadStride},
			{"get mismatch", c.GetStride(1, f.segs[1].Base(), f.segs[0].Base(), 0, 0,
				mem.Contiguous(16), mem.Contiguous(32)), ErrBadStride},
		}
		for _, tc := range cases {
			if tc.err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if !errors.Is(tc.err, tc.want) {
				t.Errorf("%s: err %v is not %v", tc.name, tc.err, tc.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceAttribution(t *testing.T) {
	f := newFixture(t, "attr", 8)
	err := f.m.Run(func(cell *machine.Cell) error {
		if cell.ID() != 0 {
			return nil
		}
		user := New(cell)
		rts := NewRTS(cell)
		if err := user.Put(Transfer{To: 1, Remote: f.segs[1].Base(), Local: f.segs[0].Base(), Size: 8}); err != nil {
			return err
		}
		if err := rts.PutStride(1, f.segs[1].Base(), f.segs[0].Base(), 0, 0, true,
			mem.Stride{ItemSize: 8, Count: 4, Skip: 8}, mem.Contiguous(32)); err != nil {
			return err
		}
		rts.AckWait()
		user.Compute(12.5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := f.m.Trace()
	evs := ts.PE[0]
	var puts, flagWaits int
	for _, e := range evs {
		switch e.Kind {
		case trace.KindPut:
			puts++
			if e.Items > 1 { // the stride one
				if !e.RTS || !e.Ack {
					t.Errorf("stride put attribution: %+v", e)
				}
			} else if e.RTS {
				t.Errorf("user put marked RTS: %+v", e)
			}
		case trace.KindFlagWait:
			flagWaits++
			if e.Flag != trace.AckFlag || e.Target != 1 {
				t.Errorf("ack wait event: %+v", e)
			}
		}
	}
	if puts != 2 || flagWaits != 1 {
		t.Errorf("puts=%d flagWaits=%d", puts, flagWaits)
	}
	row := trace.Stats(ts)
	if row.Put != 0.25 || row.PutS != 0.25 {
		t.Errorf("stats = %+v", row)
	}
}

func TestAckWaitNoAcksReturnsImmediately(t *testing.T) {
	f := newFixture(t, "", 8)
	err := f.m.Run(func(cell *machine.Cell) error {
		New(cell).AckWait() // must not block
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManySmallPutsOverflowQueue pushes far more than 8 commands
// without draining, forcing DRAM spills, and verifies nothing is
// lost — the S4.1 overflow mechanism end to end.
func TestManySmallPutsOverflowQueue(t *testing.T) {
	f := newFixture(t, "", 1024)
	rf := f.m.Cell(2).Flags.Alloc()
	const n = 500
	err := f.m.Run(func(cell *machine.Cell) error {
		c := New(cell)
		if cell.ID() == 0 {
			for i := 0; i < n; i++ {
				raddr := f.segs[2].Base() + mem.Addr((i%1024)*8)
				laddr := f.segs[0].Base() + mem.Addr((i%1024)*8)
				f.datas[0][i%1024] = float64(i)
				if err := c.Put(Transfer{To: 2, Remote: raddr, Local: laddr, Size: 8, RecvFlag: rf}); err != nil {
					return err
				}
			}
		}
		if cell.ID() == 2 {
			c.WaitFlag(rf, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.m.Cell(2).Flags.Load(rf); got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
}

func TestErrorMentionsCore(t *testing.T) {
	f := newFixture(t, "", 8)
	_ = f.m.Run(func(cell *machine.Cell) error {
		if cell.ID() == 0 {
			err := New(cell).Put(Transfer{To: 99, Size: 8})
			if err == nil || !strings.Contains(err.Error(), "core:") {
				t.Errorf("err = %v", err)
			}
			if !errors.Is(err, ErrBadAddress) {
				t.Errorf("err %v is not ErrBadAddress", err)
			}
		}
		return nil
	})
}

func BenchmarkPutIssue(b *testing.B) {
	// The paper's S4.1 claim: issuing a PUT costs only writing the
	// 8 command words. This measures our issue path (PushUser) alone.
	f := newFixture(b, "", 1024)
	err := f.m.Run(func(cell *machine.Cell) error {
		if cell.ID() != 0 {
			return nil
		}
		c := New(cell)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Put(Transfer{To: 1, Remote: f.segs[1].Base(), Local: f.segs[0].Base(), Size: 8}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestCrossPartitionRejectedAtIssue: a destination in another
// partition is a bad address at issue time, for transfers and atomics
// alike, and nothing is queued.
func TestCrossPartitionRejectedAtIssue(t *testing.T) {
	m, err := machine.New(machine.Config{Width: 2, Height: 2, MemoryPerCell: 1 << 20, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := m.Cell(0).AllocFloat64("buf", 1)
	if err != nil {
		t.Fatal(err)
	}
	other := topology.CellID(m.Cells() - 1)
	if m.PartitionOf(other) == m.PartitionOf(0) {
		t.Fatalf("cells 0 and %d share a partition", other)
	}
	err = m.Run(func(cell *machine.Cell) error {
		if cell.ID() != 0 {
			return nil
		}
		c := New(cell)
		_, faErr := c.FetchAdd(other, seg.Base(), 1)
		for name, err := range map[string]error{
			"put":      c.Put(Transfer{To: other, Remote: seg.Base(), Local: seg.Base(), Size: 8}),
			"fetchadd": faErr,
		} {
			if !errors.Is(err, ErrBadAddress) {
				t.Errorf("%s across partitions: err %v, want ErrBadAddress", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.TNetStats().Messages; n != 0 {
		t.Errorf("%d messages reached the network", n)
	}
}
