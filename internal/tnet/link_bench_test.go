package tnet

import (
	"fmt"
	"sync/atomic"
	"testing"

	"ap1000plus/internal/msc"
	"ap1000plus/internal/topology"
)

var benchSink int64

// BenchmarkLink prices one cross-shard packet two ways at bursts of
// 1, 16, 256 and 16384 packets between drains: the per-packet forms
// (Enqueue, then Drain into a func) on a bare RingLink, and the path
// the machine runs — Transmit into the outbox, one Flush, and
// DrainInbox delivering in place into an attached handler, with a
// track callback that does one atomic add per call like the machine's
// quiesce counter. ns/op is per packet.
func BenchmarkLink(b *testing.B) {
	pkt := Packet{Head: msc.Command{Op: msc.OpPut, Src: 0, Dst: 1}, SanTid: -1}
	for _, burst := range []int{1, 16, 256, 16384} {
		b.Run(fmt.Sprintf("enqueue-drain/burst=%d", burst), func(b *testing.B) {
			l := NewRingLink(256)
			deliver := func(p Packet) { benchSink += int64(p.Head.Dst) }
			for i := 0; i < b.N; i += burst {
				for k := 0; k < burst; k++ {
					l.Enqueue(pkt)
				}
				l.Drain(0, deliver)
			}
		})
		b.Run(fmt.Sprintf("transmit-flush/burst=%d", burst), func(b *testing.B) {
			n := New(topology.MustTorus(2, 2))
			for id := 0; id < 4; id++ {
				n.Attach(topology.CellID(id), func(p Packet) bool { benchSink += int64(p.Head.Dst); return true })
			}
			var quiesce atomic.Int64
			n.SetRingWire(2, 256, func(int) {}, false, func(_ topology.CellID, delta int64) { quiesce.Add(delta) })
			for i := 0; i < b.N; i += burst {
				for k := 0; k < burst; k++ {
					n.Transmit(&pkt)
				}
				n.Flush(0)
				n.DrainInbox(1, 0)
			}
		})
	}
}
