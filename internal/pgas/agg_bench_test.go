package pgas

import (
	"math/bits"
	"runtime"
	"testing"
	"time"

	"ap1000plus/internal/machine"
)

// benchW x benchH and benchOps are bale_agg's shape: 64 cells, a 64x61
// table, 8192 fine-grained operations per cell per pass.
const (
	benchW, benchH = 8, 8
	benchOps       = 8192
)

// aggPhase is one timed phase of a pass, summed over iterations.
type aggPhase struct {
	ns, allocs int64
}

// BenchmarkAggregator prices the aggregator per fine-grained element
// on bale_agg's shapes: push (buffering every operation) and advance
// (Flush: pack, one PUT per destination per round, apply, and the
// responses' rounds for index-gather), on a cold instance (the first
// pass after Bind, as every bale_agg run is) and a warm one (a second
// pass on the same AggPE). Each phase is wall time between barriers
// on all cells, and allocs/elem counts every allocation the machine
// made in it. The layout rows price one global-index translation,
// Owner plus Slot, as div/mod and as shift/mask at P = 64.
func BenchmarkAggregator(b *testing.B) {
	for _, shape := range []string{"histo", "ig"} {
		b.Run(shape, func(b *testing.B) {
			var cold, warm [2]aggPhase // push, advance
			for it := 0; it < b.N; it++ {
				aggBenchPass(b, shape == "ig", &cold, &warm)
			}
			elems := float64(b.N) * benchW * benchH * benchOps
			for _, row := range []struct {
				name string
				p    *[2]aggPhase
			}{{"cold", &cold}, {"warm", &warm}} {
				b.ReportMetric(float64(row.p[0].ns)/elems, row.name+"-push-ns/elem")
				b.ReportMetric(float64(row.p[1].ns)/elems, row.name+"-advance-ns/elem")
				b.ReportMetric(float64(row.p[0].allocs+row.p[1].allocs)/elems, row.name+"-allocs/elem")
			}
		})
	}
	lay := benchLayout
	b.Run("layout/divmod", func(b *testing.B) {
		var sum, i int64
		for k := 0; k < b.N; k++ {
			sum += lay.Owner(i) + lay.Slot(i)
			if i++; i == lay.N {
				i = 0
			}
		}
		benchSink = sum
	})
	b.Run("layout/shiftmask", func(b *testing.B) {
		shift, mask := uint(bits.TrailingZeros64(uint64(lay.P))), lay.P-1
		var sum, i int64
		for k := 0; k < b.N; k++ {
			sum += i&mask + i>>shift
			if i++; i == lay.N {
				i = 0
			}
		}
		benchSink = sum
	})
}

// benchLayout is a package variable so the compiler cannot fold P
// into the divisions.
var benchLayout = Layout{N: 64 * 61, P: 64}

var benchSink int64

// aggBenchPass builds a fresh 64-cell aggregator (untimed) and runs
// two passes of the histogram or index-gather shape on it, adding the
// first pass's phases to cold and the second's to warm.
func aggBenchPass(b *testing.B, gather bool, cold, warm *[2]aggPhase) {
	b.StopTimer()
	r := newRig(b, machine.Config{Width: benchW, Height: benchH}, true, 0)
	np := r.h.NP()
	table, err := r.h.Alloc("table", int64(np)*61)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([][]int64, np)
	for i := range dst {
		dst[i] = make([]int64, benchOps)
	}
	b.StartTimer()
	var ms runtime.MemStats
	var t0 time.Time
	var m0 uint64
	mark := func(pe *PE, into *aggPhase) {
		pe.Barrier()
		if pe.Rank() != 0 {
			return
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if into != nil {
			into.ns += int64(d)
			into.allocs += int64(ms.Mallocs - m0)
		}
		m0 = ms.Mallocs
		t0 = time.Now()
	}
	r.run(b, func(pe *PE) error {
		a := r.aggs[pe.Rank()]
		rng := uint64(pe.Rank())*0x9E3779B97F4A7C15 + 1994
		for _, p := range []*[2]aggPhase{cold, warm} {
			mark(pe, nil)
			for k := 0; k < benchOps; k++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				i := int64(rng>>11) % table.Len()
				var err error
				if gather {
					err = a.Get(table, i, &dst[pe.Rank()][k])
				} else {
					err = a.Add(table, i, 1)
				}
				if err != nil {
					return err
				}
			}
			mark(pe, &p[0])
			if err := a.Flush(); err != nil {
				return err
			}
			mark(pe, &p[1])
		}
		return nil
	})
}
