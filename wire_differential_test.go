package ap1000plus

import (
	"bytes"
	"testing"
)

// wireDiffResult is everything the differential gate compares: the
// final bytes of every cell's receive buffer and every cell's flag
// increment count, plus the machine's post-run verdicts: the
// sanitizer's (nil when unsanitized) and the drain invariant's.
type wireDiffResult struct {
	mem              [][]byte
	flags            []int64
	sanErr, drainErr error
}

// wireDiffRun executes the seeded chaos workload — alternating rounds
// of permutation PUTs and GETs with per-round flag waits and hardware
// barriers — on a machine built from opts, and snapshots memory and
// flag counts.
func wireDiffRun(t *testing.T, opts ...Option) wireDiffResult {
	t.Helper()
	const chunk, rounds = wireDiffChunk, wireDiffRounds
	opts = append([]Option{WithGrid(4, 4), WithObserve(), WithMemoryPerCell(1 << 20)}, opts...)
	m, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	np := m.Cells()
	srcs := make([][]byte, np)
	srcAddr := make([]Addr, np)
	dsts := make([][]byte, np)
	dstAddr := make([]Addr, np)
	for id := 0; id < np; id++ {
		seg, data, err := m.Cell(CellID(id)).AllocBytes("src", chunk)
		if err != nil {
			t.Fatal(err)
		}
		srcs[id], srcAddr[id] = data, seg.Base()
		seg, data, err = m.Cell(CellID(id)).AllocBytes("dst", int64(np*chunk))
		if err != nil {
			t.Fatal(err)
		}
		dsts[id], dstAddr[id] = data, seg.Base()
	}
	flag := FlagID(3)
	mustRun(t, m, func(c *Cell) error {
		comm := NewComm(c)
		id := int(c.ID())
		for r := 0; r < rounds; r++ {
			// Deterministic fill of this cell's outgoing chunk.
			for i := range srcs[id] {
				srcs[id][i] = wireDiffByte(id, r, i)
			}
			c.HWBarrier() // all chunks for round r in place
			peer := wireDiffPeer(id, r, np)
			var err error
			if r%2 == 0 {
				// PUT my chunk into the peer's slot for me.
				err = comm.Put(Transfer{
					To: CellID(peer), Remote: dstAddr[peer] + Addr(id*chunk),
					Local: srcAddr[id], Size: chunk, RecvFlag: flag,
				})
			} else {
				// GET the peer's chunk into its slot here.
				err = comm.Get(Transfer{
					To: CellID(peer), Remote: srcAddr[peer],
					Local: dstAddr[id] + Addr(peer*chunk), Size: chunk, RecvFlag: flag,
				})
			}
			if err != nil {
				return err
			}
			// Every round delivers exactly one flagged DMA per cell: the
			// incoming PUT on even rounds, my GET reply on odd ones.
			c.Flags.Wait(flag, int64(r+1))
			c.HWBarrier()
		}
		return nil
	})
	res := wireDiffResult{mem: make([][]byte, np), flags: make([]int64, np), sanErr: m.SanitizeErr(), drainErr: m.DrainInvariantErr()}
	for id := 0; id < np; id++ {
		res.mem[id] = append([]byte(nil), dsts[id]...)
		res.flags[id] = m.Cell(CellID(id)).Flags.Increments()
	}
	return res
}

const (
	wireDiffChunk  = 64
	wireDiffRounds = 12
)

// wireDiffByte is byte i of the chunk cell id sends in round r.
func wireDiffByte(id, r, i int) byte { return byte(id*31 + r*17 + i) }

// wireDiffPeer is the cell that id PUTs to (even rounds) or GETs from
// (odd rounds) in round r.
func wireDiffPeer(id, r, np int) int { return (id + 1 + (r*5+3)%(np-1)) % np }

// wireDiffOracle computes the workload's final receive buffers from
// its definition alone, with no machine: slot s of cell c holds cell
// s's chunk of the last round in which s PUT to c (even rounds) or c
// GOT from s (odd rounds), and zeros if there was none. Rounds are
// barrier-separated, so "last" is well defined on any correct wire.
func wireDiffOracle(np int) [][]byte {
	mem := make([][]byte, np)
	for c := range mem {
		mem[c] = make([]byte, np*wireDiffChunk)
	}
	for r := 0; r < wireDiffRounds; r++ {
		for id := 0; id < np; id++ {
			peer := wireDiffPeer(id, r, np)
			owner, slot := peer, id // PUT: my chunk into the peer's slot for me
			if r%2 == 1 {
				owner, slot = id, peer // GET: the peer's chunk into its slot here
			}
			for i := 0; i < wireDiffChunk; i++ {
				mem[owner][slot*wireDiffChunk+i] = wireDiffByte(slot, r, i)
			}
		}
	}
	return mem
}

// TestWireDifferential is the wire-correctness gate: a seeded workload
// of barrier-separated permutation PUTs and GETs must leave exactly
// the memory its closed form predicts — an oracle that shares no code
// with receive/deliver — and the same flag counts, on every delivery
// shape: one worker (everything inline), several (links), one per
// cell, combining on links, under seeded fault plans on the same
// shapes (retransmission and dedup, inline and over links), and
// sanitized on links, with and without a fault plan (and with one and
// combining). Every variant must also leave the sanitizer silent and
// the drain invariant clean: no dedup hole and no sanitizer token
// outlives the run. Run under -race in make verify.
func TestWireDifferential(t *testing.T) {
	var want wireDiffResult
	check := func(t *testing.T, opts ...Option) {
		t.Helper()
		got := wireDiffRun(t, opts...)
		if want.mem == nil {
			want = wireDiffResult{mem: wireDiffOracle(len(got.mem)), flags: got.flags}
		}
		if got.sanErr != nil || got.drainErr != nil {
			t.Fatalf("sanitizer: %v; drain invariant: %v", got.sanErr, got.drainErr)
		}
		for id := range want.mem {
			if !bytes.Equal(want.mem[id], got.mem[id]) {
				t.Fatalf("cell %d memory differs from the closed form", id)
			}
			if want.flags[id] != got.flags[id] {
				t.Fatalf("cell %d flag increments = %d, first variant had %d", id, got.flags[id], want.flags[id])
			}
		}
	}
	for _, v := range []struct {
		name string
		opts []Option
	}{
		{"ring wire, 1 worker", []Option{WithDeliveryWorkers(1)}},
		{"ring wire, 4 workers", []Option{WithDeliveryWorkers(4)}},
		{"ring wire, one worker per cell", []Option{WithDeliveryWorkers(16)}},
		{"combining", []Option{WithCombining()}},
		{"sanitized, 4 workers", []Option{WithSanitize(), WithDeliveryWorkers(4)}},
		{"sanitized, one worker per cell", []Option{WithSanitize(), WithDeliveryWorkers(16)}},
		{"sanitized, fault plan", []Option{WithSanitize(), WithDeliveryWorkers(4), WithFault(mustPlan(t, "drop=0.06,dup=0.04,reorder=0.03,seed=29"))}},
		{"sanitized, fault plan, combining", []Option{WithSanitize(), WithCombining(), WithFault(mustPlan(t, "drop=0.06,dup=0.04,reorder=0.03,seed=29"))}},
	} {
		t.Run(v.name, func(t *testing.T) { check(t, v.opts...) })
	}
	for _, spec := range []string{
		"drop=0.06,dup=0.04,seed=17",
		"drop=0.05,reorder=0.05,seed=23",
	} {
		t.Run("fault "+spec, func(t *testing.T) {
			for _, workers := range []int{1, 4, 16} {
				check(t, WithFault(mustPlan(t, spec)), WithDeliveryWorkers(workers))
			}
		})
	}
}
