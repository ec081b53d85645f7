package tnet

import (
	"sync"
	"testing"

	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

func newNet(t *testing.T) (*Network, *topology.Torus) {
	t.Helper()
	tor := topology.MustTorus(2, 2)
	return New(tor), tor
}

func payload(t *testing.T, n int) *mem.Payload {
	t.Helper()
	sp, _ := mem.NewSpace(1 << 16)
	seg, _ := sp.Alloc("p", mem.Bytes, int64(n))
	for i := range seg.BytesData() {
		seg.BytesData()[i] = byte(i)
	}
	//apvet:ignore rawmem unit test of the network layer itself; no machine exists to issue a PUT
	p, err := mem.CapturePayload(sp, seg.Base(), mem.Contiguous(int64(n)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSendDelivers(t *testing.T) {
	n, _ := newNet(t)
	var got []Packet
	for id := 0; id < 4; id++ {
		id := topology.CellID(id)
		n.Attach(id, func(p Packet) bool {
			if id == 2 {
				got = append(got, p)
			}
			return true
		})
	}
	n.Send(Packet{Head: msc.Command{Op: msc.OpPut, Src: 0, Dst: 2}, Payload: payload(t, 16)})
	if len(got) != 1 || got[0].Head.Src != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestSendOrderingSameSender(t *testing.T) {
	n, _ := newNet(t)
	var seen []int64
	for id := 0; id < 4; id++ {
		id := topology.CellID(id)
		n.Attach(id, func(p Packet) bool { seen = append(seen, p.Head.Tag); return true })
	}
	for i := 0; i < 10; i++ {
		n.Send(Packet{Head: msc.Command{Op: msc.OpPut, Src: 0, Dst: 1, Tag: int64(i)}})
	}
	for i, tag := range seen {
		if tag != int64(i) {
			t.Fatalf("order broken: %v", seen)
		}
	}
}

func TestStats(t *testing.T) {
	n, tor := newNet(t)
	var mu sync.Mutex
	for id := 0; id < 4; id++ {
		n.Attach(topology.CellID(id), func(Packet) bool { mu.Lock(); mu.Unlock(); return true })
	}
	n.Send(Packet{Head: msc.Command{Op: msc.OpPut, Src: 0, Dst: 3}, Payload: payload(t, 100)})
	n.Send(Packet{Head: msc.Command{Op: msc.OpGet, Src: 1, Dst: 2}})
	s := n.Stats()
	if s.Messages != 2 || s.Bytes != 100 {
		t.Fatalf("stats = %+v", s)
	}
	wantHops := int64(tor.Distance(0, 3) + tor.Distance(1, 2))
	if s.HopsTotal != wantHops {
		t.Fatalf("hops = %d, want %d", s.HopsTotal, wantHops)
	}
	if s.PerOp[msc.OpPut] != 1 || s.PerOp[msc.OpGet] != 1 {
		t.Fatalf("per-op = %v", s.PerOp)
	}
	if s.MeanDistance() != float64(wantHops)/2 {
		t.Fatalf("mean distance = %v", s.MeanDistance())
	}
}

func TestAttachErrors(t *testing.T) {
	n, _ := newNet(t)
	n.Attach(0, func(Packet) bool { return true })
	for _, f := range []func(){
		func() { n.Attach(0, func(Packet) bool { return true }) },  // duplicate
		func() { n.Attach(99, func(Packet) bool { return true }) }, // invalid cell
		func() { n.Attach(1, nil) },                                // nil handler
		func() { n.Send(Packet{Head: msc.Command{Dst: 99}}) },
		func() { n.Send(Packet{Head: msc.Command{Dst: 1}}) }, // unattached
		func() { n.SetRingWire(2, 4, nil, true, nil) },       // the reference link build is gone
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestConcurrentSenders(t *testing.T) {
	n, _ := newNet(t)
	var mu sync.Mutex
	count := 0
	for id := 0; id < 4; id++ {
		n.Attach(topology.CellID(id), func(Packet) bool {
			mu.Lock()
			count++
			mu.Unlock()
			return true
		})
	}
	var wg sync.WaitGroup
	for src := 0; src < 4; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				n.Send(Packet{Head: msc.Command{Src: topology.CellID(src), Dst: topology.CellID(i % 4)}})
			}
		}(src)
	}
	wg.Wait()
	if count != 400 {
		t.Fatalf("delivered %d", count)
	}
	if n.Stats().Messages != 400 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

// TestStatsUnknownOp pins the other half of Messages being the sum of
// PerOp: an op with no counter panics in Transmit, as an invalid
// destination does, and counts nothing.
func TestStatsUnknownOp(t *testing.T) {
	n, _ := newNet(t)
	for id := 0; id < 4; id++ {
		n.Attach(topology.CellID(id), func(Packet) bool { return true })
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("send of op msc.NumOps did not panic")
			}
		}()
		n.Send(Packet{Head: msc.Command{Op: msc.Op(msc.NumOps), Src: 0, Dst: 1}})
	}()
	if s := n.Stats(); s.Messages != 0 {
		t.Fatalf("stats after the rejected send = %+v", s)
	}
}
