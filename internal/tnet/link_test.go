package tnet

import (
	"math/rand"
	"testing"

	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// TestLinkImplsEquivalent runs the same seeded enqueue/drain schedule
// through both Link implementations and requires identical delivery
// sequences and matching counters — the link-level differential that
// keeps the lock-free RingLink pinned to the obviously-correct
// MutexLink.
func TestLinkImplsEquivalent(t *testing.T) {
	run := func(l Link) ([]int64, LinkStats) {
		rng := rand.New(rand.NewSource(99))
		var got []int64
		next := int64(0)
		for step := 0; step < 2000; step++ {
			burst := rng.Intn(7)
			for i := 0; i < burst; i++ {
				l.Enqueue(Packet{Head: msc.Command{Tag: next}})
				next++
			}
			l.Drain(rng.Intn(5), func(p Packet) { got = append(got, p.Head.Tag) })
		}
		l.Drain(0, func(p Packet) { got = append(got, p.Head.Tag) })
		if l.Pending() != 0 {
			t.Fatalf("%T: %d packets pending after full drain", l, l.Pending())
		}
		return got, l.Stats()
	}
	ringSeq, ringStats := run(NewRingLink(8))
	mtxSeq, mtxStats := run(NewMutexLink(8))
	if len(ringSeq) != len(mtxSeq) {
		t.Fatalf("delivery counts differ: ring %d, mutex %d", len(ringSeq), len(mtxSeq))
	}
	for i := range ringSeq {
		if ringSeq[i] != mtxSeq[i] {
			t.Fatalf("delivery %d differs: ring %d, mutex %d", i, ringSeq[i], mtxSeq[i])
		}
		if ringSeq[i] != int64(i) {
			t.Fatalf("delivery %d out of FIFO order: %d", i, ringSeq[i])
		}
	}
	if ringStats.Enqueued != mtxStats.Enqueued || ringStats.Drained != mtxStats.Drained {
		t.Errorf("stats differ: ring %+v, mutex %+v", ringStats, mtxStats)
	}
}

// TestRingWireOrderAndDrain drives the ring wire directly: cross- and
// same-shard sends preserve per-(src,dst) order, the wake callback
// fires for cross-shard traffic, track counts every cross-shard packet
// up before its enqueue and down after its delivery, and DrainInbox
// empties the links.
func TestRingWireOrderAndDrain(t *testing.T) {
	tor := topology.MustTorus(2, 2)
	n := New(tor)
	const shards = 2
	var woken [shards]int
	recvd := make(map[topology.CellID][]int64)
	for id := 0; id < tor.Cells(); id++ {
		id := topology.CellID(id)
		n.Attach(id, func(p Packet) bool {
			recvd[id] = append(recvd[id], p.Head.Tag)
			return true
		})
	}
	var pending, tracked int64
	n.SetRingWire(shards, 4, func(s int) { woken[s]++ }, false, func(dst topology.CellID, delta int64) {
		if dst != 1 {
			t.Errorf("tracked a packet for cell %d; only cell 1 is cross-shard", dst)
		}
		pending += delta
		if delta > 0 {
			tracked++
		}
	})

	// Cell 0 (shard 0) sends interleaved streams to cell 2 (shard 0,
	// inline) and cell 1 (shard 1, cross-shard).
	for i := int64(0); i < 100; i++ {
		n.Send(Packet{Head: msc.Command{Op: msc.OpPut, Src: 0, Dst: 2, Tag: i}})
		n.Send(Packet{Head: msc.Command{Op: msc.OpPut, Src: 0, Dst: 1, Tag: i}})
	}
	if got := len(recvd[2]); got != 100 {
		t.Fatalf("inline same-shard deliveries = %d, want 100", got)
	}
	if pending != 100 {
		t.Fatalf("tracked pending = %d, want 100", pending)
	}
	if woken[1] == 0 {
		t.Fatal("cross-shard sends never woke the consuming shard")
	}
	drained := 0
	for pending > 0 {
		got := n.DrainInbox(1, 16)
		if got == 0 {
			t.Fatalf("inbox ran dry with %d packets still tracked", pending)
		}
		drained += got
	}
	for _, dst := range []topology.CellID{1, 2} {
		for i, tag := range recvd[dst] {
			if tag != int64(i) {
				t.Fatalf("cell %d delivery %d out of order: tag %d", dst, i, tag)
			}
		}
	}
	st := n.Stats()
	if st.Messages != 200 || st.PerOp[msc.OpPut] != 200 {
		t.Errorf("stats: %d messages, %d puts, want 200/200", st.Messages, st.PerOp[msc.OpPut])
	}
	if tracked != 100 || drained != 100 {
		t.Errorf("tracked %d and drained %d cross-shard packets, want 100 each", tracked, drained)
	}
}
