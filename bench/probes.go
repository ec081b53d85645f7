package main

import (
	"runtime"
	"sync"
	"time"

	"ap1000plus/internal/event"
	"ap1000plus/internal/fault"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/pgas"
	"ap1000plus/internal/ring"
	"ap1000plus/internal/tnet"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// Stage probes: one layer at a time, in isolation, through its public
// calls only. Each probe times batches of calls and reports the median
// batch, in nanoseconds per call (or GB/s for the copy engines). They
// price the stages of a PUT that the whole-machine workloads can only
// see summed.

// probeSink keeps results alive so the compiler cannot drop the
// measured calls.
var probeSink int64

// perCall runs body(n) reps times and returns the median nanoseconds
// per call.
func perCall(reps, n int, body func(n int)) float64 {
	body(n / 4) // warm
	var ns []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		body(n)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns)
}

func runProbes(out map[string]float64, short bool) {
	reps, n := 7, 40000
	if short {
		reps, n = 3, 2000
	}

	// internal/ring.
	spsc := ring.New[int](1024)
	out["ring.spsc_pushpop_ns"] = perCall(reps, n, func(n int) {
		for i := 0; i < n; i++ {
			spsc.Push(i)
			v, _ := spsc.Pop()
			probeSink += int64(v)
		}
	})
	out["ring.spsc_xfer_ns"] = perCall(reps, n, func(n int) {
		// Two goroutines: the producer spins (yielding) when the ring is
		// full, the consumer when it is empty.
		r := ring.New[int](256)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				for !r.Push(i) {
					runtime.Gosched()
				}
			}
		}()
		for got := 0; got < n; {
			if v, ok := r.Pop(); ok {
				probeSink += int64(v)
				got++
			} else {
				runtime.Gosched()
			}
		}
		wg.Wait()
	})
	ovf := ring.NewOverflow[int](8)
	out["ring.overflow_spill_ns"] = perCall(reps, n, func(n int) {
		// 64 pushes into an 8-deep fast path: 56 spill, then all drain.
		for i := 0; i < n; i += 64 {
			for k := 0; k < 64; k++ {
				ovf.Push(k)
			}
			for k := 0; k < 64; k++ {
				v, _ := ovf.Pop()
				probeSink += int64(v)
			}
		}
	})

	// internal/tnet links and wire.
	pkt := tnet.Packet{Head: msc.Command{Op: msc.OpPut, Src: 0, Dst: 1}, SanTid: -1}
	deliver := func(p tnet.Packet) { probeSink += int64(p.Head.Dst) }
	link := func(l tnet.Link) func(n int) {
		return func(n int) {
			for i := 0; i < n; i += 64 {
				for k := 0; k < 64; k++ {
					l.Enqueue(pkt)
				}
				l.Drain(0, deliver)
			}
		}
	}
	out["tnet.ringlink_enq_drain_ns"] = perCall(reps, n, link(tnet.NewRingLink(256)))
	out["tnet.mutexlink_enq_drain_ns"] = perCall(reps, n, link(tnet.NewMutexLink(256)))
	network := func() *tnet.Network {
		net := tnet.New(topology.MustTorus(2, 2))
		for id := 0; id < 4; id++ {
			net.Attach(topology.CellID(id), func(p tnet.Packet) bool { probeSink++; return true })
		}
		return net
	}
	inline := network()
	out["tnet.send_inline_ns"] = perCall(reps, n, func(n int) {
		for i := 0; i < n; i++ {
			inline.Send(pkt)
		}
	})
	wire := network()
	wire.SetRingWire(2, 256, func(int) {}, false, nil)
	out["tnet.send_ring_ns"] = perCall(reps, n, func(n int) {
		// Cell 0 (shard 0) to cell 1 (shard 1): enqueue on the link, then
		// the consuming shard drains its inbox.
		for i := 0; i < n; i += 64 {
			for k := 0; k < 64; k++ {
				wire.Send(pkt)
			}
			wire.DrainInbox(1, 0)
		}
	})

	// internal/msc front ends.
	cmd := msc.Command{Op: msc.OpPut, Dst: 1, RStride: mem.Contiguous(8), LStride: mem.Contiguous(8)}
	buf := make([]msc.Command, 16)
	front := func(m *msc.MSC, burst int) func(n int) {
		return func(n int) {
			for i := 0; i < n; i += burst {
				for k := 0; k < burst; k++ {
					m.PushUser(cmd)
				}
				for got := 0; got < burst; {
					got += m.TryNextBatch(buf)
				}
			}
		}
	}
	// A 64-word queue holds 8 commands: bursts of 8 stay in the ring,
	// bursts of 128 (put_stream's) spill 120 to DRAM and refill.
	out["msc.ring_push_pop_ns"] = perCall(reps, n, front(msc.NewRing(msc.QueueWords, func() {}), 8))
	out["msc.ring_spill_ns"] = perCall(reps, n, front(msc.NewRing(msc.QueueWords, func() {}), 128))
	out["msc.mutex_push_pop_ns"] = perCall(reps, n, front(msc.New(), 8))

	// internal/mc flags.
	flags := mc.NewFlags()
	fid := flags.Alloc()
	out["mc.flag_inc_ns"] = perCall(reps, n, func(n int) {
		for i := 0; i < n; i++ {
			flags.Inc(fid)
		}
	})
	out["mc.flag_wake_us"] = flagWakeUs(n / 20)

	// internal/mem DMA engine.
	space, err := mem.NewSpace(1 << 20)
	if err == nil {
		src, _ := space.Alloc("src", mem.Bytes, 128<<10)
		dst, _ := space.Alloc("dst", mem.Bytes, 128<<10)
		c512 := mem.Contiguous(512)
		capture := func() *mem.Payload {
			//apvet:ignore rawmem stage probe of the mem layer in isolation; no machine exists to issue a PUT
			p, _ := mem.CapturePayload(space, src.Base(), c512)
			return p
		}
		out["mem.capture_512_ns"] = perCall(reps, n, func(n int) {
			for i := 0; i < n; i++ {
				capture().Release()
			}
		})
		p := capture()
		out["mem.deliver_512_ns"] = perCall(reps, n, func(n int) {
			for i := 0; i < n; i++ {
				//apvet:ignore rawmem stage probe of the mem layer in isolation; no machine exists to issue a PUT
				if p.Deliver(space, dst.Base(), c512) != nil {
					probeSink++
				}
			}
		})
		p.Release()
		const slot = 64 << 10
		gbps := func(nsPerCall float64) float64 { return slot / nsPerCall }
		out["mem.copy_64k_gb_per_s"] = gbps(perCall(reps, n/40, func(n int) {
			for i := 0; i < n; i++ {
				//apvet:ignore rawmem stage probe of the mem layer in isolation; no machine exists to issue a PUT
				if mem.Copy(space, dst.Base(), space, src.Base(), slot) != nil {
					probeSink++
				}
			}
		}))
		everyOther := mem.Stride{ItemSize: 8, Count: slot / 8, Skip: 8}
		out["mem.stride_64k_gb_per_s"] = gbps(perCall(reps, n/40, func(n int) {
			for i := 0; i < n; i++ {
				//apvet:ignore rawmem stage probe of the mem layer in isolation; no machine exists to issue a PUT
				if mem.CopyStride(space, dst.Base(), mem.Contiguous(slot), space, src.Base(), everyOther) != nil {
					probeSink++
				}
			}
		}))
	}

	// Address arithmetic.
	torus := topology.MustTorus(16, 16)
	out["topology.route_ns"] = perCall(reps, n, func(n int) {
		// Torus.Distance is the per-packet routing computation of tnet.Send.
		for i := 0; i < n; i++ {
			probeSink += int64(torus.Distance(topology.CellID(i&255), topology.CellID((i*7+3)&255)))
		}
	})
	layout := pgas.Layout{N: 64 * 61, P: 64}
	out["pgas.layout_translate_ns"] = perCall(reps, n, func(n int) {
		for i := 0; i < n; i++ {
			g := int64(i) % layout.N
			probeSink += layout.Owner(g) + layout.Slot(g)
		}
	})
	if plan, err := fault.Parse("drop=0.05,dup=0.02,seed=42"); err == nil {
		if inj, err := plan.Build(64, append(msc.OpNames(), "bcast")); err == nil {
			out["fault.fate_ns"] = perCall(reps, n, func(n int) {
				for i := 0; i < n; i++ {
					probeSink += int64(inj.Decide(i&63, (i+1)&63, int(msc.OpPut)).Kind)
				}
			})
		}
	}

	// The MLSim kernel and the trace recorder.
	out["event.push_pop_ns"] = perCall(reps, n, func(n int) {
		var k event.Kernel
		h := func(event.Time) { probeSink++ }
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64; j++ {
				k.After(event.Time(64-j), h)
			}
			for k.Step() {
			}
		}
	})
	out["trace.record_ns"] = perCall(reps, n, func(n int) {
		rec := trace.NewRecorder()
		for i := 0; i < n; i++ {
			rec.Put(1, 512, 1, trace.NoFlag, 3, false, false)
		}
		probeSink += int64(len(rec.Events()))
	})
}

// flagWakeUs is the park/wake hand-off under every flag wait: the
// median microseconds from Flags.Inc to the moment a goroutine blocked
// in Flags.Wait on that count is running again.
func flagWakeUs(rounds int) float64 {
	flags := mc.NewFlags()
	id := flags.Alloc()
	woke := make(chan time.Time)
	ready := make(chan struct{})
	go func() {
		for k := 1; k <= rounds; k++ {
			ready <- struct{}{}
			flags.Wait(id, int64(k))
			woke <- time.Now()
		}
	}()
	var us []float64
	for k := 1; k <= rounds; k++ {
		<-ready
		// Let the waiter reach its park before the increment.
		time.Sleep(20 * time.Microsecond)
		t0 := time.Now()
		flags.Inc(id)
		us = append(us, float64((<-woke).Sub(t0).Nanoseconds())/1e3)
	}
	return median(us)
}
