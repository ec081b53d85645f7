package machine

import (
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"ap1000plus/internal/fault"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// assertLinksDrained checks the post-Run reliable-delivery invariant
// via the exported checker (see Machine.DrainInvariantErr).
func assertLinksDrained(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.DrainInvariantErr(); err != nil {
		t.Error(err)
	}
}

// TestSeenDrainsUnderReorder: a sustained reorder plan punches holes
// in every dedup window; after Run the windows must be empty — the
// regression this pins is seen maps retaining entries (or growing for
// the rest of the run) once a hole forms.
func TestSeenDrainsUnderReorder(t *testing.T) {
	m := newMachine(t, Config{Fault: mustPlan(t, "reorder=0.25,seed=13")})
	// Distinct source and sink buffers per cell: segs[me] is the target
	// of my predecessor's PUTs while srcs[me] feeds my own, so the ring
	// never reads a buffer another cell is delivering into.
	segs := make([]*mem.Segment, m.Cells())
	srcs := make([]*mem.Segment, m.Cells())
	for id := 0; id < m.Cells(); id++ {
		seg, _, err := m.Cell(topology.CellID(id)).AllocFloat64("buf", 8)
		if err != nil {
			t.Fatal(err)
		}
		segs[id] = seg
		src, _, err := m.Cell(topology.CellID(id)).AllocFloat64("src", 8)
		if err != nil {
			t.Fatal(err)
		}
		srcs[id] = src
	}
	err := m.Run(func(c *Cell) error {
		next := topology.CellID((int(c.ID()) + 1) % m.Cells())
		flag := c.Flags.Alloc()
		for i := 0; i < 200; i++ {
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: next,
				RAddr: segs[next].Base(), LAddr: srcs[c.ID()].Base(),
				RStride: mem.Contiguous(64), LStride: mem.Contiguous(64),
				SendFlag: flag,
			})
		}
		c.Flags.Wait(flag, 200)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FaultErr(); err != nil {
		t.Fatal(err)
	}
	assertLinksDrained(t, m)
}

// TestSeenDrainsAfterBudgetExhaustion: a dead link abandons packets at
// the retry budget, leaving permanent sender-side sequence holes.
// Reconciliation at drain must collapse them so the dedup state still
// ends empty — abandoned seqs must not leak.
func TestSeenDrainsAfterBudgetExhaustion(t *testing.T) {
	m := newMachine(t, Config{Fault: mustPlan(t, "link:0:1:drop=0.5,budget=3,seed=3")})
	segs := make([]*mem.Segment, m.Cells())
	for id := 0; id < m.Cells(); id++ {
		seg, _, err := m.Cell(topology.CellID(id)).AllocFloat64("buf", 8)
		if err != nil {
			t.Fatal(err)
		}
		segs[id] = seg
	}
	err := m.Run(func(c *Cell) error {
		if c.ID() != 0 {
			return nil
		}
		for i := 0; i < 100; i++ {
			c.PushUser(msc.Command{
				Op: msc.OpPut, Dst: 1,
				RAddr: segs[1].Base(), LAddr: segs[0].Base(),
				RStride: mem.Contiguous(64), LStride: mem.Contiguous(64),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ferr := m.FaultErr()
	if ferr == nil {
		t.Fatal("half-dead link with budget 3 produced no CellFault")
	}
	var cf *CellFault
	if !errors.As(ferr, &cf) {
		t.Fatalf("FaultErr = %v, want *CellFault", ferr)
	}
	assertLinksDrained(t, m)
}

// TestAtomicExactlyOnceUnderDup: duplicated atomic requests must be
// served from the replay cache, never re-executed — the counter lands
// on the exact total and the replay counter shows the cache fired.
func TestAtomicExactlyOnceUnderDup(t *testing.T) {
	m := newMachine(t, Config{Observe: true, Fault: mustPlan(t, "dup=0.2,seed=7")})
	addr := allocWords(t, m)
	const iters = 150
	np := m.Cells()
	err := m.Run(func(c *Cell) error {
		for i := 0; i < iters; i++ {
			if _, err := c.FetchAdd(0, addr, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FaultErr(); err != nil {
		t.Fatal(err)
	}
	total, err := m.Cell(0).Mem.LoadWord8(addr)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(np * iters); total != want {
		t.Fatalf("final counter = %d, want %d (duplicate re-executed an RMW)", total, want)
	}
	mt := m.Metrics()
	tot := mt.Totals()
	if tot.AtomicsExecuted != int64(np*iters) {
		t.Errorf("AtomicsExecuted = %d, want %d", tot.AtomicsExecuted, np*iters)
	}
	if tot.Dedups == 0 {
		t.Error("dup plan fired no dedups")
	}
	assertLinksDrained(t, m)
}

// TestReplayCacheBounded: far more atomics than the window on one link
// must leave at most atomicReplayWindow cached results.
func TestReplayCacheBounded(t *testing.T) {
	m := newMachine(t, Config{Fault: mustPlan(t, "seed=1")})
	addr := allocWords(t, m)
	err := m.Run(func(c *Cell) error {
		if c.ID() != 1 {
			return nil
		}
		for i := 0; i < 3*atomicReplayWindow; i++ {
			if _, err := c.FetchAdd(0, addr, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l := &m.rel.links[1*m.rel.cells+0]
	l.mu.Lock()
	n := len(l.results)
	l.mu.Unlock()
	if n > atomicReplayWindow {
		t.Fatalf("replay cache holds %d results, bound is %d", n, atomicReplayWindow)
	}
	if n == 0 {
		t.Fatal("replay cache cached nothing")
	}
	assertLinksDrained(t, m)
}

// TestFaultPlanConstructionCost: the relay holds cells² links, so a
// link must stay a handful of words — the atomic replay ring is
// allocated on first use — or a plan alone costs 1.2 GiB at 1024
// cells. What is left there (~170 MiB over the planless machine) is
// 64 B per link plus the injector's 8 B per (link, class) stream
// counters.
func TestFaultPlanConstructionCost(t *testing.T) {
	if got := unsafe.Sizeof(relLink{}); got > 64 {
		t.Errorf("relLink is %d bytes, want <= 64", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(Config{Width: 32, Height: 32, MemoryPerCell: 1 << 16, Fault: mustPlan(t, "seed=1")})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) >> 20; got >= 256 {
		t.Errorf("New of %d cells with a plan allocated %d MiB, want < 256", m.Cells(), got)
	}
}
