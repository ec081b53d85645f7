package machine

import (
	"sync"
	"testing"

	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/topology"
)

// allocWord allocates one 8-byte word on every cell and returns the
// (identical) base address.
func allocWords(t *testing.T, m *Machine) mem.Addr {
	t.Helper()
	var base mem.Addr
	for id := 0; id < m.Cells(); id++ {
		seg, _, err := m.Cell(topology.CellID(id)).AllocFloat64("word", 1)
		if err != nil {
			t.Fatal(err)
		}
		if id == 0 {
			base = seg.Base()
		} else if seg.Base() != base {
			t.Fatalf("cell %d word at %#x, cell 0 at %#x", id, seg.Base(), base)
		}
	}
	return base
}

// TestAtomicFetchAdd: every cell hammers one word on cell 0; the final
// value is the total and the fetched values are a permutation of the
// intermediate sums (each observed exactly once).
func TestAtomicFetchAdd(t *testing.T) {
	m := newMachine(t, Config{Observe: true})
	addr := allocWords(t, m)
	const iters = 50
	np := m.Cells()
	fetched := make([][]int64, np)
	err := m.Run(func(c *Cell) error {
		for i := 0; i < iters; i++ {
			v, err := c.FetchAdd(0, addr, 1)
			if err != nil {
				return err
			}
			fetched[c.ID()] = append(fetched[c.ID()], v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total, err := m.Cell(0).Mem.LoadWord8(addr)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(np * iters); total != want {
		t.Fatalf("final counter = %d, want %d", total, want)
	}
	seen := make(map[int64]bool)
	for id, vals := range fetched {
		if len(vals) != iters {
			t.Fatalf("cell %d fetched %d values, want %d", id, len(vals), iters)
		}
		for _, v := range vals {
			if v < 0 || v >= int64(np*iters) || seen[v] {
				t.Fatalf("cell %d fetched %d: out of range or duplicated", id, v)
			}
			seen[v] = true
		}
	}
	mt := m.Metrics()
	tot := mt.Totals()
	if tot.Atomics != int64(np*iters) {
		t.Errorf("Atomics = %d, want %d", tot.Atomics, np*iters)
	}
	if tot.AtomicsExecuted != int64(np*iters) {
		t.Errorf("AtomicsExecuted = %d, want %d", tot.AtomicsExecuted, np*iters)
	}
}

// TestAtomicOpsSemantics drives each operation once from a single cell
// and checks the RMW semantics against the word in cell 1's memory.
func TestAtomicOpsSemantics(t *testing.T) {
	m := newMachine(t, Config{})
	addr := allocWords(t, m)
	err := m.Run(func(c *Cell) error {
		if c.ID() != 0 {
			return nil
		}
		if old, err := c.Swap(1, addr, 40); err != nil || old != 0 {
			t.Errorf("Swap = (%d, %v), want (0, nil)", old, err)
		}
		if old, err := c.FetchAdd(1, addr, 2); err != nil || old != 40 {
			t.Errorf("FetchAdd = (%d, %v), want (40, nil)", old, err)
		}
		// Failed CAS: compare value mismatches, word unchanged.
		if old, err := c.CompareAndSwap(1, addr, 7, 99); err != nil || old != 42 {
			t.Errorf("failed CAS = (%d, %v), want (42, nil)", old, err)
		}
		// Successful CAS.
		if old, err := c.CompareAndSwap(1, addr, 42, -5); err != nil || old != 42 {
			t.Errorf("CAS = (%d, %v), want (42, nil)", old, err)
		}
		// Min against -5 with a larger value: no change.
		c.AtomicMin(1, addr, 10)
		// Max with a larger value: stores it.
		c.AtomicMax(1, addr, 17)
		c.FenceAtomics()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	word, err := m.Cell(1).Mem.LoadWord8(addr)
	if err != nil {
		t.Fatal(err)
	}
	if int64(word) != 17 {
		t.Fatalf("final word = %d, want 17", int64(word))
	}
}

// TestAtomicFence: fire-and-forget adds from every cell, fenced; the
// total must be exact with no fetching round trips.
func TestAtomicFence(t *testing.T) {
	m := newMachine(t, Config{})
	addr := allocWords(t, m)
	const iters = 100
	np := m.Cells()
	err := m.Run(func(c *Cell) error {
		for i := 0; i < iters; i++ {
			c.AtomicAdd(0, addr, 3)
		}
		if got := c.AtomicsIssued(); got != iters {
			t.Errorf("cell %d AtomicsIssued = %d, want %d", c.ID(), got, iters)
		}
		c.FenceAtomics()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total, err := m.Cell(0).Mem.LoadWord8(addr)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(3 * np * iters); total != want {
		t.Fatalf("final counter = %d, want %d", total, want)
	}
}

// TestAtomicPageFault: an atomic to an unmapped address faults the
// owner and errors the requester instead of hanging or corrupting.
func TestAtomicPageFault(t *testing.T) {
	m := newMachine(t, Config{})
	allocWords(t, m)
	err := m.Run(func(c *Cell) error {
		if c.ID() != 0 {
			return nil
		}
		if _, err := c.FetchAdd(1, mem.Addr(1<<30), 1); err == nil {
			t.Error("FetchAdd to unmapped address succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cell(1).OS.InterruptCounts()["page-fault"] == 0 {
		t.Error("owner took no page-fault interrupt")
	}
}

// TestAtomicCombining: the combined machine produces the identical
// final count and the same exactly-once fetch multiset as the plain
// one, while absorbing requests into folds.
func TestAtomicCombining(t *testing.T) {
	run := func(combining bool) (uint64, map[int64]int, int64) {
		m := newMachine(t, Config{Width: 4, Height: 4, Observe: true, Combining: combining})
		addr := allocWords(t, m)
		const iters = 200
		var mu sync.Mutex
		fetched := make(map[int64]int)
		err := m.Run(func(c *Cell) error {
			for i := 0; i < iters; i++ {
				v, err := c.FetchAdd(0, addr, 1)
				if err != nil {
					return err
				}
				mu.Lock()
				fetched[v]++
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		total, err := m.Cell(0).Mem.LoadWord8(addr)
		if err != nil {
			t.Fatal(err)
		}
		mt := m.Metrics()
		return total, fetched, mt.Totals().AtomicsCombined
	}
	plainTotal, plainFetched, plainCombined := run(false)
	combTotal, combFetched, combCombined := run(true)
	if plainCombined != 0 {
		t.Errorf("uncombined run reports %d combines", plainCombined)
	}
	if combTotal != plainTotal {
		t.Fatalf("combined total = %d, uncombined = %d", combTotal, plainTotal)
	}
	for v, n := range plainFetched {
		if n != 1 {
			t.Fatalf("uncombined run fetched %d x%d times", v, n)
		}
		if combFetched[v] != 1 {
			t.Fatalf("combined run fetched %d x%d times, want exactly once", v, combFetched[v])
		}
	}
	if len(combFetched) != len(plainFetched) {
		t.Fatalf("combined run fetched %d distinct values, uncombined %d", len(combFetched), len(plainFetched))
	}
	t.Logf("combined run absorbed %d of %d requests", combCombined, 16*200)
}

// TestAtomicCombiningMinMax: combinable min/max fold correctly in the
// delivery workers' folds.
func TestAtomicCombiningMinMax(t *testing.T) {
	m := newMachine(t, Config{Width: 4, Height: 4, Combining: true})
	addr := allocWords(t, m)
	np := m.Cells()
	err := m.Run(func(c *Cell) error {
		// Max over 100*id: final word must be 100*(np-1).
		c.AtomicMax(0, addr, int64(100*int(c.ID())))
		c.FenceAtomics()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	word, err := m.Cell(0).Mem.LoadWord8(addr)
	if err != nil {
		t.Fatal(err)
	}
	if int64(word) != int64(100*(np-1)) {
		t.Fatalf("max fold = %d, want %d", int64(word), 100*(np-1))
	}
}

// TestApplyAtomicTable pins the RMW algebra the owner executes.
func TestApplyAtomicTable(t *testing.T) {
	cases := []struct {
		op           mc.AtomicOp
		old, operand int64
		cmp          int64
		stored       int64
	}{
		{mc.AtomicFetchAdd, 10, 5, 0, 15},
		{mc.AtomicAdd, -3, 3, 0, 0},
		{mc.AtomicCAS, 7, 99, 7, 99},
		{mc.AtomicCAS, 7, 99, 8, 7},
		{mc.AtomicSwap, 1, 2, 0, 2},
		{mc.AtomicMin, 5, -5, 0, -5},
		{mc.AtomicMin, -5, 5, 0, -5},
		{mc.AtomicMax, 5, -5, 0, 5},
		{mc.AtomicMax, -5, 5, 0, 5},
	}
	for _, c := range cases {
		stored, fetched := mc.ApplyAtomic(c.op, c.old, c.operand, c.cmp)
		if stored != c.stored || fetched != c.old {
			t.Errorf("ApplyAtomic(%s, %d, %d, %d) = (%d, %d), want (%d, %d)",
				c.op, c.old, c.operand, c.cmp, stored, fetched, c.stored, c.old)
		}
	}
}
