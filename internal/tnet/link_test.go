package tnet

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ap1000plus/internal/fault"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

// link is the surface the differential tests drive on RingLink and on
// its oracle.
type link interface {
	Enqueue(Packet)
	Drain(max int, deliver func(Packet)) int
	Pending() int
	Stats() LinkStats
	publish(ps []Packet)
	take(dst []Packet) int
}

// mutexLink is RingLink's oracle: one mutex around a slice FIFO, taken
// once per packet on both sides. Structurally too simple to be wrong,
// it keeps the batched link honest.
type mutexLink struct {
	mu    sync.Mutex
	buf   []Packet
	head  int
	stats LinkStats
}

func newMutexLink(capacity int) *mutexLink {
	return &mutexLink{buf: make([]Packet, 0, capacity)}
}

func (l *mutexLink) Enqueue(p Packet) {
	l.mu.Lock()
	l.buf = append(l.buf, p)
	l.stats.Enqueued++
	l.mu.Unlock()
}

func (l *mutexLink) Drain(max int, deliver func(Packet)) int {
	n := 0
	var p Packet
	for (max <= 0 || n < max) && l.pop(&p) {
		deliver(p)
		n++
	}
	return n
}

func (l *mutexLink) publish(ps []Packet) {
	for _, p := range ps {
		l.Enqueue(p)
	}
}

func (l *mutexLink) take(dst []Packet) int {
	n := 0
	for n < len(dst) && l.pop(&dst[n]) {
		n++
	}
	return n
}

// pop moves the oldest packet into *dst and reports whether there was
// one.
func (l *mutexLink) pop(dst *Packet) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head >= len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
		return false
	}
	*dst = l.buf[l.head]
	l.buf[l.head] = Packet{}
	l.head++
	l.stats.Drained++
	return true
}

func (l *mutexLink) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf) - l.head
}

func (l *mutexLink) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// TestLinkImplsEquivalent runs the same seeded schedule through
// RingLink and its mutexLink oracle and requires identical delivery
// sequences and matching counters — the link-level differential that
// keeps the batched RingLink pinned to the obviously-correct oracle. Each
// step mixes the per-packet forms (Enqueue bursts, Drain with a random
// max) with the batch forms the link matrix uses (publish of a random
// batch, take into a random-sized buffer), so backlogs wrap and grow
// the ring past its fast-path depth.
func TestLinkImplsEquivalent(t *testing.T) {
	run := func(l link) ([]int64, LinkStats) {
		rng := rand.New(rand.NewSource(99))
		var got []int64
		record := func(p Packet) { got = append(got, p.Head.Tag) }
		next := int64(0)
		batch := make([]Packet, 40)
		for step := 0; step < 4000; step++ {
			switch rng.Intn(4) {
			case 0:
				for i := rng.Intn(7); i > 0; i-- {
					l.Enqueue(Packet{Head: msc.Command{Tag: next}})
					next++
				}
			case 1:
				ps := batch[:rng.Intn(len(batch)+1)]
				for i := range ps {
					ps[i] = Packet{Head: msc.Command{Tag: next}}
					next++
				}
				l.publish(ps)
			case 2:
				l.Drain(rng.Intn(5), record)
			case 3:
				dst := make([]Packet, rng.Intn(21))
				for _, p := range dst[:l.take(dst)] {
					record(p)
				}
			}
		}
		l.Drain(0, record)
		if l.Pending() != 0 {
			t.Fatalf("%T: %d packets pending after full drain", l, l.Pending())
		}
		return got, l.Stats()
	}
	ringSeq, ringStats := run(NewRingLink(8))
	mtxSeq, mtxStats := run(newMutexLink(8))
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
	if ringStats.Spills == 0 {
		t.Errorf("ring link never outgrew its fast path: %+v", ringStats)
	}
}

// FuzzLinkEquivalent decodes its input into the four step kinds of
// TestLinkImplsEquivalent and runs them through a RingLink and the
// mutexLink oracle. data[0] picks the ring's fast-path depth (2..8);
// each following pair of bytes is one step, a kind and a size: an
// Enqueue burst (0..6 packets), a publish batch (0..40), a Drain with
// max 0..4 (0 drains all) or a take into a buffer of 0..20. Both links
// must deliver the same sequence, in FIFO order, and hold the same
// number of packets after every step.
func FuzzLinkEquivalent(f *testing.F) {
	f.Add([]byte{6, 0, 3, 2, 2, 3, 7})
	// Depth 2 and three 40-packet batches before the first take: the
	// ring grows far past its fast path, then drains in odd chunks.
	f.Add([]byte{0, 1, 40, 1, 40, 1, 40, 3, 20, 2, 3, 3, 7, 0, 6, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		links := [2]link{NewRingLink(2 + int(data[0])%7), newMutexLink(0)}
		var seqs [2][]int64
		batch := make([]Packet, 40)
		buf := make([]Packet, 20)
		next := int64(0)
		for i := 1; i+1 < len(data); i += 2 {
			kind, arg := data[i]%4, int(data[i+1])
			var tag int64
			for j, l := range links {
				tag = next
				switch kind {
				case 0:
					for k := arg % 7; k > 0; k-- {
						l.Enqueue(Packet{Head: msc.Command{Tag: tag}})
						tag++
					}
				case 1:
					ps := batch[:arg%(len(batch)+1)]
					for k := range ps {
						ps[k] = Packet{Head: msc.Command{Tag: tag}}
						tag++
					}
					l.publish(ps)
				case 2:
					l.Drain(arg%5, func(p Packet) { seqs[j] = append(seqs[j], p.Head.Tag) })
				case 3:
					dst := buf[:arg%(len(buf)+1)]
					for _, p := range dst[:l.take(dst)] {
						seqs[j] = append(seqs[j], p.Head.Tag)
					}
				}
			}
			next = tag
			if r, m := links[0].Pending(), links[1].Pending(); r != m {
				t.Fatalf("step %d: ring holds %d packets, oracle %d", i/2, r, m)
			}
		}
		for j, l := range links {
			l.Drain(0, func(p Packet) { seqs[j] = append(seqs[j], p.Head.Tag) })
			if l.Pending() != 0 {
				t.Fatalf("%T: %d packets pending after full drain", l, l.Pending())
			}
		}
		if !slices.Equal(seqs[0], seqs[1]) {
			t.Fatalf("delivery sequences differ:\nring   %v\noracle %v", seqs[0], seqs[1])
		}
		if int64(len(seqs[0])) != next {
			t.Fatalf("delivered %d of %d packets", len(seqs[0]), next)
		}
		for i, tag := range seqs[0] {
			if tag != int64(i) {
				t.Fatalf("delivery %d out of FIFO order: %d", i, tag)
			}
		}
	})
}

// TestRingLinkConcurrentFIFO runs one producer publishing random
// batches against one consumer taking into random-sized buffers, as
// the link matrix's shards do, and requires every packet to arrive
// once and in order while the ring wraps and grows under contention.
func TestRingLinkConcurrentFIFO(t *testing.T) {
	const total = 20000
	l := NewRingLink(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		batch := make([]Packet, 64)
		for next := int64(0); next < total; {
			ps := batch[:min(1+rng.Intn(len(batch)), int(total-next))]
			for i := range ps {
				ps[i] = Packet{Head: msc.Command{Tag: next}}
				next++
			}
			l.publish(ps)
		}
	}()
	rng := rand.New(rand.NewSource(8))
	buf := make([]Packet, 48)
	for want := int64(0); want < total; {
		for _, p := range buf[:l.take(buf[:1+rng.Intn(len(buf))])] {
			if p.Head.Tag != want {
				t.Fatalf("took tag %d, want %d", p.Head.Tag, want)
			}
			want++
		}
	}
	<-done
	if st := l.Stats(); st.Enqueued != total || st.Drained != total || l.Pending() != 0 {
		t.Fatalf("after the run: %+v with %d pending", st, l.Pending())
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

// TestFaultFatesRideTheLink pins the wire under an injector: every
// surviving copy of a cross-shard packet — intact, duplicated, damaged
// or released from limbo — goes onto the stream's link in FIFO order
// and no handler runs before the consuming shard drains; Send reports
// the fate; abandoning a packet empties its stream's limbo.
func TestFaultFatesRideTheLink(t *testing.T) {
	tor := topology.MustTorus(2, 2)
	n := New(tor)
	plan := &fault.Plan{}
	for i, k := range []fault.Kind{fault.KindDup, fault.KindCorrupt, fault.KindReorder, fault.KindNone, fault.KindReorder} {
		plan.Injections = append(plan.Injections, fault.Injection{Src: 0, Dst: 1, Class: "put", Index: uint64(i), Kind: k})
	}
	inj, err := plan.Build(tor.Cells(), msc.OpNames())
	if err != nil {
		t.Fatal(err)
	}
	const sum = 0xfeed
	var recvd, rejected []int64
	for id := 0; id < tor.Cells(); id++ {
		n.Attach(topology.CellID(id), func(p Packet) bool {
			if p.Head.Sum != sum {
				rejected = append(rejected, p.Head.Tag)
				return false
			}
			recvd = append(recvd, p.Head.Tag)
			return true
		})
	}
	n.SetFault(inj)
	var pending int64
	n.SetRingWire(2, 4, func(int) {}, false, func(_ topology.CellID, delta int64) { pending += delta })

	put := func(tag int64) Packet {
		return Packet{Head: msc.Command{Op: msc.OpPut, Src: 0, Dst: 1, Tag: tag, Sum: sum}}
	}
	for tag, want := range []struct {
		ok      bool
		pending int64
	}{
		{true, 2},  // dup: two copies on the link
		{false, 3}, // corrupt: the damaged copy travels, the sender times out
		{false, 3}, // reorder: held
		{true, 5},  // intact, then the held copy behind it
	} {
		if ok := n.Send(put(int64(tag))); ok != want.ok || pending != want.pending {
			t.Fatalf("send %d: ok=%v with %d pending, want %v with %d", tag, ok, pending, want.ok, want.pending)
		}
	}
	if len(recvd)+len(rejected) != 0 {
		t.Fatalf("handler ran before DrainInbox: accepted %v, rejected %v", recvd, rejected)
	}
	if got := n.DrainInbox(1, 0); got != 5 || pending != 0 {
		t.Fatalf("drained %d with %d still pending, want 5 and 0", got, pending)
	}
	if want := []int64{0, 0, 3, 2}; !slices.Equal(recvd, want) {
		t.Errorf("accepted order %v, want %v", recvd, want)
	}
	if want := []int64{1}; !slices.Equal(rejected, want) {
		t.Errorf("checksum rejected %v, want %v", rejected, want)
	}

	// A packet whose every attempt was held: abandoning it discards the
	// copies, so the next packet of the stream travels alone.
	p := put(4)
	if n.Send(p) || len(n.limbo) != 1 {
		t.Fatalf("reordered attempt: want false and one held stream, limbo %v", n.limbo)
	}
	n.DropHeld(p)
	if len(n.limbo) != 0 {
		t.Fatalf("limbo after abandon: %v", n.limbo)
	}
	if !n.Send(put(5)) || pending != 1 {
		t.Fatalf("after abandon: %d pending, want the one intact packet", pending)
	}
}
