// Remote-atomic chaos and combining-equivalence suite: a hot
// fetch-and-add counter hammered through the facade must land on
// exactly P x iters under every seeded fault plan (each intermediate
// sum observed exactly once), and a combined machine must be
// indistinguishable from an uncombined one — same totals, same fetch
// multisets, bit-for-bit identical per-cell results — plain,
// sanitized, and over a lossy wire.
package ap1000plus

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ap1000plus/internal/msc"
)

// atomicMachine builds an observed side x side machine with the given
// fault plan, combining and sanitizer settings.
func atomicMachine(t *testing.T, side int, plan *FaultPlan, combining, sanitize bool) *Machine {
	t.Helper()
	opts := []Option{WithGrid(side, side), WithObserve()}
	if plan != nil {
		opts = append(opts, WithFault(plan))
	}
	if combining {
		opts = append(opts, WithCombining())
	}
	if sanitize {
		opts = append(opts, WithSanitize())
	}
	m, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// atomicCounterRun hammers one word on cell 0 with comm.FetchAdd from
// every cell of a side x side machine and returns the final counter,
// the multiset of fetched values, and the machine metrics.
func atomicCounterRun(t *testing.T, side int, plan *FaultPlan, combining, sanitize bool, iters int) (uint64, map[int64]int, Metrics) {
	t.Helper()
	m := atomicMachine(t, side, plan, combining, sanitize)
	seg, _, err := m.Cell(0).AllocFloat64("counter", 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fetched := make(map[int64]int)
	mustRun(t, m, func(c *Cell) error {
		comm := NewComm(c)
		for i := 0; i < iters; i++ {
			v, err := comm.FetchAdd(0, seg.Base(), 1)
			if err != nil {
				return err
			}
			mu.Lock()
			fetched[v]++
			mu.Unlock()
		}
		return nil
	})
	if err := m.DrainInvariantErr(); err != nil {
		t.Fatal(err)
	}
	total, err := m.Cell(0).Mem.LoadWord8(seg.Base())
	if err != nil {
		t.Fatal(err)
	}
	return total, fetched, m.Metrics()
}

// TestChaosAtomicCounter runs the hot counter under every seeded fault
// plan of the chaos suite: the final value must be exactly P x iters
// and every intermediate sum fetched exactly once — drops must not
// lose an increment, duplicates must not apply one twice.
func TestChaosAtomicCounter(t *testing.T) {
	const iters = 120
	for _, p := range chaosPlans {
		t.Run(p.name, func(t *testing.T) {
			total, fetched, mt := atomicCounterRun(t, 2, mustPlan(t, p.spec), false, false, iters)
			np := 4
			if want := uint64(np * iters); total != want {
				t.Fatalf("final counter = %d, want %d", total, want)
			}
			for v := int64(0); v < int64(np*iters); v++ {
				if fetched[v] != 1 {
					t.Fatalf("intermediate sum %d fetched %d times, want exactly once", v, fetched[v])
				}
			}
			tot := mt.Totals()
			if tot.AtomicsExecuted != int64(np*iters) {
				t.Errorf("AtomicsExecuted = %d, want %d (an RMW was lost or re-applied)",
					tot.AtomicsExecuted, np*iters)
			}
			if mt.Fault == nil {
				t.Fatal("Metrics().Fault nil on a machine with a fault plan")
			}
			if mt.Fault.CellFaults != 0 {
				t.Fatalf("retry budget exhausted %d times under a recoverable plan", mt.Fault.CellFaults)
			}
		})
	}
}

// atomicPrivateRun is the deterministic mixed-op workload: cell c owns
// word c of every cell's block and is its only updater, so every
// fetched value and every final word is fully determined — any
// divergence between two runs is a real semantic difference. Returns
// each cell's fetch log and the final words.
func atomicPrivateRun(t *testing.T, plan *FaultPlan, combining, sanitize bool) ([][]int64, []uint64) {
	t.Helper()
	m := atomicMachine(t, 2, plan, combining, sanitize)
	np := m.Cells()
	segs, _ := allocEach(t, m, "words", np)
	logs := make([][]int64, np)
	mustRun(t, m, func(c *Cell) error {
		comm := NewComm(c)
		me := int64(c.ID())
		slot := func(owner int) Addr { return segs[owner].Base() + Addr(me*8) }
		for round := 0; round < 8; round++ {
			for owner := 0; owner < np; owner++ {
				dst := CellID(owner)
				v, err := comm.FetchAdd(dst, slot(owner), me*7+int64(round)+1)
				if err != nil {
					return err
				}
				logs[me] = append(logs[me], v)
				if err := comm.AtomicMax(dst, slot(owner), me*100+int64(round*3)); err != nil {
					return err
				}
				if round%3 == 2 {
					old, err := comm.Swap(dst, slot(owner), me*1000+int64(round))
					if err != nil {
						return err
					}
					logs[me] = append(logs[me], old)
				}
			}
		}
		comm.FenceAtomics()
		return nil
	})
	words := make([]uint64, 0, np*np)
	for owner := 0; owner < np; owner++ {
		for slot := 0; slot < np; slot++ {
			w, err := m.Cell(CellID(owner)).Mem.LoadWord8(segs[owner].Base() + Addr(slot*8))
			if err != nil {
				t.Fatal(err)
			}
			words = append(words, w)
		}
	}
	return logs, words
}

// TestAtomicCombinedEqualsUncombined is the equivalence property:
// turning on combining changes only the message count, never the
// results — under a plain run, a sanitized run, and a seeded drop+dup
// plan, plain and sanitized. Sanitized under the plan, the hot counter
// must replay some duplicated requests from the result cache: each
// replayed reply runs under a copy of the original reply's token, and
// the sanitizer and the drain invariant stay clean. The hot counter compares fetch multisets, which a fold's
// decombined replies must reproduce; the private-word workload
// compares every fetched value and final word bit for bit. Whether
// any request joins a fold on this 2x2 machine is a scheduling race;
// TestAtomicHotCounterMessages pins that combining happens.
func TestAtomicCombinedEqualsUncombined(t *testing.T) {
	variants := []struct {
		name     string
		sanitize bool
		spec     string
	}{
		{"plain", false, ""},
		{"sanitize", true, ""},
		{"drop+dup", false, "drop=0.05,dup=0.05,seed=42"},
		{"sanitize drop+dup", true, "drop=0.05,dup=0.05,seed=42"},
	}
	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			const iters = 100
			baseTotal, baseFetched, _ := atomicCounterRun(t, 2, mustPlan(t, variant.spec), false, variant.sanitize, iters)
			combTotal, combFetched, combMetrics := atomicCounterRun(t, 2, mustPlan(t, variant.spec), true, variant.sanitize, iters)
			if variant.sanitize && variant.spec != "" && combMetrics.Totals().AtomicReplays == 0 {
				t.Error("hot counter: no duplicated request was replayed")
			}
			if combTotal != baseTotal {
				t.Fatalf("hot counter: combined total = %d, uncombined = %d", combTotal, baseTotal)
			}
			if len(combFetched) != len(baseFetched) {
				t.Fatalf("hot counter: combined fetched %d distinct sums, uncombined %d",
					len(combFetched), len(baseFetched))
			}
			for v, n := range baseFetched {
				if combFetched[v] != n {
					t.Errorf("hot counter: sum %d fetched %d times combined, %d uncombined",
						v, combFetched[v], n)
				}
			}

			baseLogs, baseWords := atomicPrivateRun(t, mustPlan(t, variant.spec), false, variant.sanitize)
			combLogs, combWords := atomicPrivateRun(t, mustPlan(t, variant.spec), true, variant.sanitize)
			for id := range baseLogs {
				if len(combLogs[id]) != len(baseLogs[id]) {
					t.Fatalf("cell %d: %d fetches combined vs %d uncombined",
						id, len(combLogs[id]), len(baseLogs[id]))
				}
				for i := range baseLogs[id] {
					if combLogs[id][i] != baseLogs[id][i] {
						t.Errorf("cell %d fetch %d: combined %d, uncombined %d",
							id, i, combLogs[id][i], baseLogs[id][i])
					}
				}
			}
			for i := range baseWords {
				if combWords[i] != baseWords[i] {
					t.Errorf("word %d: combined %#x, uncombined %#x", i, combWords[i], baseWords[i])
				}
			}
		})
	}
}

// TestAtomicBatchStaged drives non-fetching atomics through a
// CommandList: staged adds ride one doorbell, act as merge barriers
// for coalescing, and are fenced by FenceAtomics like singly-issued
// ones.
func TestAtomicBatchStaged(t *testing.T) {
	m := atomicMachine(t, 2, nil, false, false)
	seg, _, err := m.Cell(0).AllocFloat64("counter", 1)
	if err != nil {
		t.Fatal(err)
	}
	const adds = 16
	mustRun(t, m, func(c *Cell) error {
		comm := NewComm(c)
		b := comm.Batch()
		for i := 0; i < adds; i++ {
			b.AtomicAdd(0, seg.Base(), 2)
		}
		b.AtomicMax(0, seg.Base(), 1) // no-op once the adds land
		if err := b.Commit(); err != nil {
			return err
		}
		comm.FenceAtomics()
		return nil
	})
	if err := m.DrainInvariantErr(); err != nil {
		t.Fatal(err)
	}
	total, err := m.Cell(0).Mem.LoadWord8(seg.Base())
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(4 * adds * 2); total != want {
		t.Fatalf("batched adds = %d, want %d", total, want)
	}
}

// TestAtomicCombiningAcrossPartitions: combining composes with
// partitions — fold keys include the owner and no request crosses a
// partition, so requests of two tenants never share a fold. Four
// partitions of an 8x4 machine each hammer their own hot counter over
// three sequential Runs, plain and over a lossy wire: every counter
// lands on its exact total, requests really combined, and the
// reliable layer's windows drain.
func TestAtomicCombiningAcrossPartitions(t *testing.T) {
	const iters, runs, parts = 50, 3, 4
	for _, spec := range []string{"", "drop=0.05,dup=0.05,reorder=0.04,corrupt=0.03,seed=99"} {
		opts := []Option{WithGrid(8, 4), WithPartitions(parts), WithCombining(), WithObserve()}
		if plan := mustPlan(t, spec); plan != nil {
			opts = append(opts, WithFault(plan))
		}
		m, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		owner := make([]CellID, parts)
		addr := make([]Addr, parts)
		for p := range owner {
			owner[p] = m.Partition(p).Group().SortedCopy()[0]
			seg, _, err := m.Cell(owner[p]).AllocFloat64("counter", 1)
			if err != nil {
				t.Fatal(err)
			}
			addr[p] = seg.Base()
		}
		for run := 0; run < runs; run++ {
			err := m.Run(func(c *Cell) error {
				p := m.PartitionOf(c.ID())
				comm := NewComm(c)
				for i := 0; i < iters; i++ {
					if _, err := comm.FetchAdd(owner[p], addr[p], 1); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("plan %q run %d: %v", spec, run, err)
			}
		}
		if err := m.FaultErr(); err != nil {
			t.Fatalf("plan %q: %v", spec, err)
		}
		for p := range owner {
			got, err := m.Cell(owner[p]).Mem.LoadWord8(addr[p])
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(runs * iters * m.Partition(p).Size()); got != want {
				t.Errorf("plan %q: partition %d counter = %d, want %d", spec, p, got, want)
			}
		}
		if mt := m.Metrics(); mt.Totals().AtomicsCombined == 0 {
			t.Errorf("plan %q: no request combined", spec)
		}
		if err := m.DrainInvariantErr(); err != nil {
			t.Errorf("plan %q: %v", spec, err)
		}
	}
}

// TestAtomicHotCounterMessages pins what is deterministic about the hot
// counter on 4x4 and 8x8 machines. The counter lands on cells x iters
// exactly. Uncombined, every fetch-add is one request and one reply.
// Combined, each request absorbed into a fold saves exactly those two
// messages. How many are absorbed is a scheduling race (a delivery
// worker holds its folds open for one yield and one more pass), so no
// combined count is pinned; only that some combine, and that at 64
// cells the folds bring the counter under one message per op. The sweep over GOMAXPROCS keeps the
// verdict independent of the host's cores.
func TestAtomicHotCounterMessages(t *testing.T) {
	const iters = 100
	for _, procs := range []int{1, 4} {
		for _, side := range []int{4, 8} {
			for _, combining := range []bool{false, true} {
				t.Run(fmt.Sprintf("procs=%d/cells=%d/combining=%v", procs, side*side, combining), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					total, _, mt := atomicCounterRun(t, side, nil, combining, false, iters)
					ops := int64(side * side * iters)
					if total != uint64(ops) {
						t.Fatalf("counter = %d, want %d", total, ops)
					}
					msgs := mt.TNet.PerOp[msc.OpAtomic] + mt.TNet.PerOp[msc.OpAtomicReply]
					combined := mt.Totals().AtomicsCombined
					if msgs != 2*(ops-combined) {
						t.Errorf("%d atomic messages with %d of %d ops combined, want 2·(ops − combined) = %d",
							msgs, combined, ops, 2*(ops-combined))
					}
					if combining && combined == 0 {
						t.Error("no request combined on a hot counter")
					}
					if !combining && combined != 0 {
						t.Errorf("%d requests combined with combining off", combined)
					}
					if combining && side == 8 && msgs >= ops {
						t.Errorf("64 cells: %d atomic messages for %d ops, want under one per op", msgs, ops)
					}
				})
			}
		}
	}
}

// TestCombiningKeepsIssueOrder pins that no command overtakes an
// earlier atomic of its cell, whether combining is on or off. Every
// cell but 0 loops over an AtomicAdd to a word on cell 0 followed by
// a PUT to cell 0 that raises a receive flag, so once cell 0 has seen
// k flags it must see at least k adds. Cell 0 reads the word through
// its own MC (a CompareAndSwap that never matches) rather than
// loading DRAM behind the owner's controller. The order holds over a
// lossy wire too: a retransmission finishes before the cell's next
// command leaves. The test runs at the host's GOMAXPROCS; make verify
// also runs it under -race at GOMAXPROCS 1 and 4.
func TestCombiningKeepsIssueOrder(t *testing.T) {
	const rounds = 50
	for _, tc := range []struct{ name, spec string }{
		{"trusted", ""},
		{"lossy", "drop=0.05,dup=0.05,reorder=0.04,corrupt=0.03,seed=99"},
	} {
		for _, combining := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/combining=%v", tc.name, combining), func(t *testing.T) {
				m := atomicMachine(t, 8, mustPlan(t, tc.spec), combining, false)
				x, _, err := m.Cell(0).AllocFloat64("x", 1)
				if err != nil {
					t.Fatal(err)
				}
				segs, _ := allocEach(t, m, "buf", 64)
				rf := m.Cell(0).Flags.Alloc()
				mustRun(t, m, func(c *Cell) error {
					comm := NewComm(c)
					me := c.ID()
					if me != 0 {
						for i := 0; i < rounds; i++ {
							if err := comm.AtomicAdd(0, x.Base(), 1); err != nil {
								return err
							}
							err := comm.Put(Transfer{To: 0, Remote: segs[0].Base() + Addr(8*me), Local: segs[me].Base(), Size: 8, RecvFlag: rf})
							if err != nil {
								return err
							}
						}
						comm.FenceAtomics()
						return nil
					}
					for k := int64(1); k <= int64(m.Cells()-1)*rounds; k++ {
						comm.WaitFlag(rf, k)
						v, err := comm.CompareAndSwap(0, x.Base(), -1, -1)
						if err != nil {
							return err
						}
						if v < k {
							return fmt.Errorf("%d receive flags but %d adds: a PUT overtook its cell's earlier AtomicAdd", k, v)
						}
					}
					return nil
				})
				if err := m.FaultErr(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
