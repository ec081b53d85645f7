package tnet

import (
	"slices"
	"testing"
	"unsafe"

	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// TestHeaderSizes pins the size of the header every wire hop copies: a
// field added to msc.Command grows every staged, published and taken
// packet, and should show up here as a visible diff.
func TestHeaderSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(msc.Command{}); got != 160 {
		t.Errorf("msc.Command is %d B, want 160 (20 words)", got)
	}
	if got := unsafe.Sizeof(Packet{}); got != 184 {
		t.Errorf("tnet.Packet is %d B, want 184", got)
	}
}

// trackCall is one recorded track invocation.
type trackCall struct {
	part  int32
	delta int64
}

// TestTransmitStagesUntilFlush pins the staging contract on a 4×3
// torus, 3 shards and 2 partitions: a cross-shard Transmit runs no
// handler, charges nothing and rings no doorbell; Flush rings one wake
// per consumer, in first-staged order, and makes one track call per
// run of packets bound for one partition, with the run's length as
// its delta; DrainInbox uncharges by the same runs.
func TestTransmitStagesUntilFlush(t *testing.T) {
	tor := topology.MustTorus(4, 3)
	n := New(tor)
	of := make([]int32, tor.Cells())
	for id := range of {
		of[id] = int32(id / 6)
	}
	n.SetPartitions(of)
	var delivered []topology.CellID
	for id := 0; id < tor.Cells(); id++ {
		id := topology.CellID(id)
		n.Attach(id, func(Packet) bool { delivered = append(delivered, id); return true })
	}
	var woken []int
	var calls []trackCall
	n.SetRingWire(3, 4, func(s int) { woken = append(woken, s) }, false, func(dst topology.CellID, delta int64) {
		calls = append(calls, trackCall{of[dst], delta})
	})

	// All sources are in shard 0 (id mod 3 == 0). Consumer shard 1 gets
	// partition runs [1 4] [7] [4]; consumer shard 2 gets [2] [11].
	for _, e := range [][2]topology.CellID{{0, 1}, {0, 4}, {0, 2}, {6, 7}, {3, 4}, {9, 11}} {
		if !n.Transmit(&Packet{Head: msc.Command{Op: msc.OpPut, Src: e[0], Dst: e[1]}}) {
			t.Fatalf("transmit %d->%d reported false", e[0], e[1])
		}
	}
	if len(delivered)+len(woken)+len(calls) != 0 {
		t.Fatalf("Transmit had effects before Flush: delivered %v, woken %v, track %v", delivered, woken, calls)
	}
	n.Flush(0)
	if want := []int{1, 2}; !slices.Equal(woken, want) {
		t.Errorf("Flush woke %v, want %v", woken, want)
	}
	if want := []trackCall{{0, 2}, {1, 1}, {0, 1}, {0, 1}, {1, 1}}; !slices.Equal(calls, want) {
		t.Errorf("Flush charged %v, want %v", calls, want)
	}
	if len(delivered) != 0 {
		t.Fatalf("Flush ran handlers: %v", delivered)
	}
	n.Flush(0)
	if len(woken) != 2 || len(calls) != 5 {
		t.Fatalf("a second Flush with nothing staged had effects: woken %v, track %v", woken, calls)
	}

	calls = nil
	if got := n.DrainInbox(1, 0); got != 4 {
		t.Fatalf("DrainInbox(1) = %d, want 4", got)
	}
	if want := []topology.CellID{1, 4, 7, 4}; !slices.Equal(delivered, want) {
		t.Errorf("shard 1 delivered %v, want %v", delivered, want)
	}
	if want := []trackCall{{0, -2}, {1, -1}, {0, -1}}; !slices.Equal(calls, want) {
		t.Errorf("DrainInbox uncharged %v, want %v", calls, want)
	}
}

// TestReplyStagedDuringDrain pins the quiesce argument for replies: a
// handler that transmits a cross-shard reply while DrainInbox delivers
// leaves the reply staged, and the track sum must not read zero until
// both the request and its reply have been delivered.
func TestReplyStagedDuringDrain(t *testing.T) {
	// One request fits a DrainInbox chunk, so only the flush-before-
	// uncharge order keeps the sum off zero; ten span three chunks.
	for _, reqs := range []int{1, 10} {
		tor := topology.MustTorus(2, 2)
		n := New(tor)
		replies := 0
		for id := 0; id < tor.Cells(); id++ {
			id := topology.CellID(id)
			n.Attach(id, func(p Packet) bool {
				if p.Head.Op == msc.OpAtomic {
					n.Transmit(&Packet{Head: msc.Command{Op: msc.OpAtomicReply, Src: id, Dst: p.Head.Src, Tag: p.Head.Tag}})
				} else {
					replies++
				}
				return true
			})
		}
		staged := func() int {
			k := 0
			for _, sb := range n.ring.shard {
				for _, ps := range sb.out {
					k += len(ps)
				}
			}
			return k
		}
		var sum int64
		n.SetRingWire(2, 4, func(int) {}, false, func(_ topology.CellID, delta int64) {
			sum += delta
			if sum == 0 && staged() > 0 {
				t.Errorf("%d requests: track sum read 0 with %d packets staged", reqs, staged())
			}
		})

		// Cell 0 (shard 0) sends requests to cell 1 (shard 1), whose
		// handler answers cell 0 across the shards again.
		for i := 0; i < reqs; i++ {
			n.Send(Packet{Head: msc.Command{Op: msc.OpAtomic, Src: 0, Dst: 1, Tag: int64(i)}})
		}
		if got := n.DrainInbox(1, 0); got != reqs {
			t.Fatalf("%d requests: DrainInbox(1) = %d", reqs, got)
		}
		if sum != int64(reqs) || staged() != 0 {
			t.Fatalf("%d requests: after serving, track sum %d with %d staged; want every reply on the link", reqs, sum, staged())
		}
		if got := n.DrainInbox(0, 0); got != reqs || replies != reqs || sum != 0 {
			t.Fatalf("%d requests: drained %d replies, handled %d, track sum %d; want %d, %d, 0", reqs, got, replies, sum, reqs, reqs)
		}
	}
}

// TestDrainInboxMax pins max as a total over every producing link: a
// 3×2 torus on 3 shards, where cells 0 and 1 (shards 0 and 1) each send
// 10 packets to cell 2 (shard 2).
func TestDrainInboxMax(t *testing.T) {
	for _, tc := range []struct{ max, want int }{
		{4, 4}, {10, 10}, {15, 15}, {25, 20}, {0, 20},
	} {
		tor := topology.MustTorus(3, 2)
		n := New(tor)
		for id := 0; id < tor.Cells(); id++ {
			n.Attach(topology.CellID(id), func(Packet) bool { return true })
		}
		n.SetRingWire(3, 4, nil, false, nil)
		for i := 0; i < 10; i++ {
			for _, src := range []topology.CellID{0, 1} {
				n.Send(Packet{Head: msc.Command{Op: msc.OpPut, Src: src, Dst: 2}})
			}
		}
		if got := n.DrainInbox(2, tc.max); got != tc.want {
			t.Errorf("DrainInbox(2, %d) = %d, want %d", tc.max, got, tc.want)
		}
	}
}
