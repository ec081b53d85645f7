package machine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ap1000plus/internal/machine"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

func newSanMachine(t *testing.T, sanitize bool) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{Width: 2, Height: 2, Sanitize: sanitize})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// racyProgram seeds a communication race: cell 0 PUTs into cell 1's
// buffer with no flags, while cell 1 reads that same buffer as the
// source of its own PUT without waiting for anything. Whatever the
// interleaving, the receive-DMA write and the send-DMA read are
// unordered.
func racyProgram(c *machine.Cell) error {
	seg, _, err := c.AllocFloat64("buf", 8)
	if err != nil {
		return err
	}
	dst, _, err := c.AllocFloat64("dst", 8)
	if err != nil {
		return err
	}
	// Everyone maps its segments before traffic flows; a barrier
	// does not order the PUT against the read below (that is the
	// point), but it does order allocation against delivery.
	c.HWBarrier()
	pat := mem.Contiguous(64)
	switch c.ID() {
	case 0:
		c.PushUser(msc.Command{
			Op: msc.OpPut, Dst: 1,
			RAddr: seg.Base(), LAddr: seg.Base(),
			RStride: pat, LStride: pat,
		})
	case 1:
		c.PushUser(msc.Command{
			Op: msc.OpPut, Dst: 2,
			RAddr: dst.Base(), LAddr: seg.Base(),
			RStride: pat, LStride: pat,
		})
	}
	return nil
}

// skipSeededRace skips tests whose program genuinely races on the
// simulated DRAM when the binary carries the Go race detector, which
// would (correctly) report the seeded race before apsan can.
func skipSeededRace(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("seeded race is a real data race; covered by plain go test, reported by -race otherwise")
	}
}

func TestSanitizerCatchesPutReadRace(t *testing.T) {
	skipSeededRace(t)
	m := newSanMachine(t, true)
	if err := m.Run(racyProgram); err != nil {
		t.Fatal(err)
	}
	err := m.SanitizeErr()
	if err == nil {
		t.Fatal("seeded PUT/read race not detected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "PUT") {
		t.Errorf("report does not name the PUT operations: %v", msg)
	}
	// Both access sites must be present, each with cell and thread.
	if !strings.Contains(msg, "cell 1") {
		t.Errorf("report does not locate the conflict on cell 1's memory: %v", msg)
	}
	var intrs int64
	for id := 0; id < m.Cells(); id++ {
		intrs += m.Cell(topology.CellID(id)).OS.Interrupts(machine.IntrSanitizer)
	}
	if intrs == 0 {
		t.Error("no sanitizer interrupt was raised")
	}
}

// The same racy program on an unsanitized machine runs silently —
// the bug the sanitizer exists to surface.
func TestUnsanitizedMachineAcceptsRacySilently(t *testing.T) {
	skipSeededRace(t)
	m := newSanMachine(t, false)
	if err := m.Run(racyProgram); err != nil {
		t.Fatal(err)
	}
	if m.Sanitizer() != nil {
		t.Error("unsanitized machine has a sanitizer")
	}
	if err := m.SanitizeErr(); err != nil {
		t.Errorf("unsanitized machine reported: %v", err)
	}
}

// Adding the flag discipline — cell 1 waits for the receive flag
// before reading the buffer — makes the same traffic clean.
func TestSanitizerFlagDisciplineClean(t *testing.T) {
	m := newSanMachine(t, true)
	err := m.Run(func(c *machine.Cell) error {
		recvFlag := c.Flags.Alloc() // same ID on every cell (SPMD)
		seg, _, err := c.AllocFloat64("buf", 8)
		if err != nil {
			return err
		}
		dst, _, err := c.AllocFloat64("dst", 8)
		if err != nil {
			return err
		}
		c.HWBarrier()
		pat := mem.Contiguous(64)
		switch c.ID() {
		case 0:
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: 1,
				RAddr: seg.Base(), LAddr: seg.Base(),
				RStride: pat, LStride: pat,
				RecvFlag: recvFlag,
			})
		case 1:
			c.Flags.Wait(recvFlag, 1)
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: 2,
				RAddr: dst.Base(), LAddr: seg.Base(),
				RStride: pat, LStride: pat,
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SanitizeErr(); err != nil {
		t.Fatalf("flag-disciplined program flagged: %v", err)
	}
}

// ackAndBarrier reproduces the paper's S2.2 "Ack & Barrier" scenario
// at machine level: cell 0 PUTs into cell 1, everyone barriers, then
// cell 2 GETs the buffer. Without an acknowledgement the barrier does
// NOT order the in-flight PUT against the GET's reply read; with the
// ack round trip (a GET with remote address 0) it does.
func ackAndBarrier(withAck bool) func(c *machine.Cell) error {
	return func(c *machine.Cell) error {
		ackFlag := c.Flags.Alloc()
		getFlag := c.Flags.Alloc()
		seg, _, err := c.AllocFloat64("buf", 8)
		if err != nil {
			return err
		}
		out, _, err := c.AllocFloat64("out", 8)
		if err != nil {
			return err
		}
		c.HWBarrier()
		pat := mem.Contiguous(64)
		if c.ID() == 0 {
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: 1,
				RAddr: seg.Base(), LAddr: seg.Base(),
				RStride: pat, LStride: pat,
			})
			if withAck {
				// Acknowledge: a GET of zero bytes round-trips behind the
				// PUT on the same in-order channel (S4.1).
				c.PushUser(msc.Command{Op: msc.OpGet, Dst: 1, RecvFlag: ackFlag})
				c.Flags.Wait(ackFlag, 1)
			}
		}
		c.HWBarrier()
		if c.ID() == 2 {
			c.PushUser(msc.Command{
				Op: msc.OpGet, Dst: 1,
				RAddr: seg.Base(), LAddr: out.Base(),
				RStride: pat, LStride: pat,
				RecvFlag: getFlag,
			})
			c.Flags.Wait(getFlag, 1)
		}
		return nil
	}
}

func TestSanitizerAckAndBarrier(t *testing.T) {
	if !raceDetectorEnabled { // the ack-less half races for real
		racy := newSanMachine(t, true)
		if err := racy.Run(ackAndBarrier(false)); err != nil {
			t.Fatal(err)
		}
		if racy.SanitizeErr() == nil {
			t.Fatal("barrier without acknowledgement must not order the in-flight PUT (S2.2)")
		}
	}

	clean := newSanMachine(t, true)
	if err := clean.Run(ackAndBarrier(true)); err != nil {
		t.Fatal(err)
	}
	if err := clean.SanitizeErr(); err != nil {
		t.Fatalf("Ack & Barrier program flagged: %v", err)
	}
}

// Remote stores are ordered by the automatic acknowledgement fence.
func TestSanitizerRemoteStoreFence(t *testing.T) {
	m := newSanMachine(t, true)
	err := m.Run(func(c *machine.Cell) error {
		seg, data, err := c.AllocFloat64("slot", 1)
		if err != nil {
			return err
		}
		c.HWBarrier()
		if c.ID() == 0 {
			data[0] = 41
			c.RemoteStore(1, seg.Base(), seg.Base(), 8)
			c.FenceRemoteStores()
			// Scratch reuse after the fence is ordered behind the
			// store's capture read.
			data[0] = 42
			c.SanWrite(seg.Base(), mem.Contiguous(8), "scratch rewrite")
			c.RemoteStore(1, seg.Base(), seg.Base(), 8)
			c.Flags.Wait(mc.RemoteAckFlagID, 2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SanitizeErr(); err != nil {
		t.Fatalf("fenced remote stores flagged: %v", err)
	}
}

// sendTimeClockProgram: cell 0 PUTs to cell 1 with receive flag f,
// then its CPU writes its own L and issues an unrelated PUT to cell 2;
// cell 1 waits on f and PUTs into cell 0's L. The write of L comes
// after the first PUT was issued, so f does not order it against cell
// 1's PUT. A receive controller stamping the first PUT's delivery with
// the sender's live clock — which by then may have acquired the CPU's
// release for the second PUT — would hide the race.
func sendTimeClockProgram(c *machine.Cell) error {
	f := c.Flags.Alloc()
	l, _, err := c.AllocFloat64("L", 8)
	if err != nil {
		return err
	}
	buf, _, err := c.AllocFloat64("buf", 8)
	if err != nil {
		return err
	}
	c.HWBarrier()
	pat := mem.Contiguous(64)
	put := func(dst topology.CellID, raddr, laddr mem.Addr, flag mc.FlagID) {
		c.PushUser(msc.Command{Op: msc.OpPut, Dst: dst, RAddr: raddr, LAddr: laddr, RStride: pat, LStride: pat, RecvFlag: flag})
	}
	switch c.ID() {
	case 0:
		put(1, buf.Base(), buf.Base(), f)
		c.SanWrite(l.Base(), pat, "CPU write of L")
		put(2, buf.Base(), buf.Base(), mc.NoFlag)
	case 1:
		c.Flags.Wait(f, 1)
		put(0, l.Base(), buf.Base(), mc.NoFlag)
	}
	return nil
}

// TestSanitizerUsesSendTimeClock pins that a delivery runs under the
// clock its sender had at transmit, not the sender's live clock: on
// two delivery workers cell 1's packets cross a link, so the first
// PUT may be delivered after cell 0's controller acquired the second
// PUT's clock. Every run must report the race on L.
func TestSanitizerUsesSendTimeClock(t *testing.T) {
	for run := 0; run < 40; run++ {
		m, err := machine.New(machine.Config{Width: 2, Height: 2, Sanitize: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(sendTimeClockProgram); err != nil {
			t.Fatal(err)
		}
		err = m.SanitizeErr()
		if err == nil {
			t.Fatalf("run %d: the CPU write of L racing cell 1's PUT into L was not reported", run)
		}
		if msg := err.Error(); !strings.Contains(msg, "CPU write of L") || !strings.Contains(msg, "PUT receive DMA write") {
			t.Fatalf("run %d: report does not name both sites: %v", run, msg)
		}
		if err := m.DrainInvariantErr(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// partitionJob is the program partition p runs in
// TestSanitizerPerPartition: the seeded race of racyProgram on the
// partition's first two cells when racy, else three rounds of a ring
// of flagged PUTs whose CPU-side source writes and destination reads
// are ordered by the receive flag and the partition's barrier.
func partitionJob(p *machine.Partition, racy bool) func(c *machine.Cell) error {
	members := p.Group().Members()
	return func(c *machine.Cell) error {
		f := c.Flags.Alloc()
		src, _, err := c.AllocFloat64("src", 8)
		if err != nil {
			return err
		}
		dst, _, err := c.AllocFloat64("dst", 8)
		if err != nil {
			return err
		}
		c.HWBarrier()
		pat := mem.Contiguous(64)
		rank, _ := p.Group().Rank(c.ID())
		next := members[(rank+1)%len(members)]
		if racy {
			switch rank {
			case 0:
				c.PushUser(msc.Command{Op: msc.OpPut, Dst: next, RAddr: src.Base(), LAddr: src.Base(), RStride: pat, LStride: pat})
			case 1:
				c.PushUser(msc.Command{Op: msc.OpPut, Dst: next, RAddr: dst.Base(), LAddr: src.Base(), RStride: pat, LStride: pat})
			}
			return nil
		}
		for r := 0; r < 3; r++ {
			c.SanWrite(src.Base(), pat, "source fill")
			c.PushUser(msc.Command{Op: msc.OpPut, Dst: next, RAddr: dst.Base(), LAddr: src.Base(), RStride: pat, LStride: pat, RecvFlag: f})
			c.Flags.Wait(f, int64(r+1))
			c.SanRead(dst.Base(), pat, "destination read")
			c.HWBarrier()
		}
		return nil
	}
}

// runPartitioned runs one job per partition concurrently on a
// sanitized 4x2 machine; partition 0's job is the seeded race when
// racy.
func runPartitioned(t *testing.T, parts int, racy bool) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{Width: 4, Height: 2, MemoryPerCell: 1 << 20, Sanitize: true, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for i := 0; i < parts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.RunJob(i, partitionJob(m.Partition(i), racy && i == 0))
		}(i)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
	}
	if err := m.DrainInvariantErr(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSanitizerPerPartition runs the sanitizer on a partitioned
// machine with concurrent jobs: a seeded race in partition 0 is
// reported on partition 0's cells alone, and an all-clean run reports
// nothing — each partition's S-net barrier is its own episode, so
// clean tenants neither mix clocks with nor inherit reports from
// another.
func TestSanitizerPerPartition(t *testing.T) {
	for _, parts := range []int{2, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			if !raceDetectorEnabled { // the seeded race is a real one
				m := runPartitioned(t, parts, true)
				if m.SanitizeErr() == nil {
					t.Fatal("seeded race in partition 0 not reported")
				}
				for _, r := range m.Sanitizer().Reports() {
					for _, cell := range []int{r.Prior.Cell, r.Prior.MemCell, r.Access.Cell, r.Access.MemCell} {
						if p := m.PartitionOf(topology.CellID(cell)); p != 0 {
							t.Errorf("report names cell %d of partition %d: %v", cell, p, r)
						}
					}
				}
				var intrs int64
				for id := 0; id < m.Cells(); id++ {
					n := m.Cell(topology.CellID(id)).OS.Interrupts(machine.IntrSanitizer)
					if n != 0 && m.PartitionOf(topology.CellID(id)) != 0 {
						t.Errorf("cell %d outside partition 0 took %d sanitizer interrupts", id, n)
					}
					intrs += n
				}
				if intrs == 0 {
					t.Error("no sanitizer interrupt was raised")
				}
			}
			if err := runPartitioned(t, parts, false).SanitizeErr(); err != nil {
				t.Fatalf("flag- and barrier-disciplined partitions flagged: %v", err)
			}
		})
	}
}

// TestSanitizerJobsOnOnePartition runs two jobs back to back on one
// partition of an open machine: the first PUTs into a buffer nobody
// waits for, the second rewrites that buffer on its owner's CPU. The
// partition's drain between the jobs orders them, so the second job's
// write is no race.
func TestSanitizerJobsOnOnePartition(t *testing.T) {
	m, err := machine.New(machine.Config{Width: 2, Height: 2, MemoryPerCell: 1 << 20, Sanitize: true, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]mem.Addr, m.Cells())
	for id := range bufs {
		seg, _, err := m.Cell(topology.CellID(id)).AllocFloat64("buf", 8)
		if err != nil {
			t.Fatal(err)
		}
		bufs[id] = seg.Base()
	}
	pat := mem.Contiguous(64)
	members := m.Partition(1).Group().Members()
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	if err := m.RunJob(1, func(c *machine.Cell) error {
		if c.ID() == members[0] {
			c.PushUser(msc.Command{Op: msc.OpPut, Dst: members[1], RAddr: bufs[members[1]], LAddr: bufs[c.ID()], RStride: pat, LStride: pat})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunJob(1, func(c *machine.Cell) error {
		if c.ID() == members[1] {
			c.SanWrite(bufs[c.ID()], pat, "next job's rewrite")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.SanitizeErr(); err != nil {
		t.Fatalf("a drained job raced the next job on its partition: %v", err)
	}
}
