package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOverflowFIFOThroughSpill floods a tiny ring far past capacity
// and checks items come out in push order with spills accounted.
func TestOverflowFIFOThroughSpill(t *testing.T) {
	o := NewOverflow[int](2)
	const total = 500
	for i := 0; i < total; i++ {
		o.Push(i)
	}
	if o.Spills() == 0 {
		t.Fatal("flooding a 2-slot ring produced no spills")
	}
	if o.Len() != total {
		t.Fatalf("Len = %d, want %d", o.Len(), total)
	}
	for i := 0; i < total; i++ {
		v, ok := o.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := o.Pop(); ok {
		t.Fatal("phantom item after drain")
	}
}

// TestOverflowConcurrentFIFO is the concurrent property: a producer
// racing a consumer through ring-full/spill transitions must preserve
// order exactly (run under -race in make verify). The producer waits
// for the queue to run dry and then pushes capacity+1 items without
// yielding — a full ring plus one spill landing while the consumer is
// between "ring empty" and "anything spilled?", the window in which a
// Pop that does not re-check the ring serves the spilled item first.
func TestOverflowConcurrentFIFO(t *testing.T) {
	o := NewOverflow[uint64](2)
	burst := uint64(o.Cap() + 1)
	const total = 9000
	var failed atomic.Bool // stops the producer once the consumer gave up
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total && !failed.Load(); {
			for o.Len() != 0 && !failed.Load() {
				runtime.Gosched()
			}
			for k := uint64(0); k < burst && i < total; k++ {
				o.Push(i)
				i++
			}
		}
	}()
	idle := 0
	for want := uint64(0); want < total; {
		v, ok := o.Pop()
		if !ok {
			if idle++; idle%64 == 0 {
				runtime.Gosched()
			}
			continue
		}
		if v != want {
			failed.Store(true)
			wg.Wait()
			t.Fatalf("popped %d, want %d: overflow queue lost, duplicated or reordered an item", v, want)
		}
		want++
	}
	wg.Wait()
	if _, extra := o.Pop(); extra {
		t.Fatal("phantom item after the last one")
	}
}
