package ring

import (
	"fmt"
	"testing"
)

// command stands in for the MSC+'s 160-byte msc.Command.
type command [20]uint64

var benchSink uint64

// BenchmarkOverflow prices one item through an 8-slot Overflow (the
// MSC+ queue's depth) with the pointer forms the MSC+ uses: a burst of
// 8 stays in the ring, a burst of 128 (put_stream's) spills 120 items
// and refills them. ns/op is per item.
func BenchmarkOverflow(b *testing.B) {
	for _, burst := range []int{8, 128} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			o := NewOverflow[command](8)
			var c command
			for i := 0; i < b.N; i += burst {
				for k := 0; k < burst; k++ {
					c[0] = uint64(k)
					o.PushFrom(&c)
				}
				for k := 0; k < burst; k++ {
					o.PopInto(&c)
					benchSink += c[0]
				}
			}
		})
	}
}
