package msc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRingFrontFIFOThroughSpill pushes far more commands than the
// hardware ring holds and checks the consumer sees them in issue
// order, with the overflow accounted as DRAM spills and OS refills.
// The commands go in one at a time, or as PushUserBatch runs after a
// first single push: a 13-command batch overruns the 8-command ring
// and must queue behind anything that already spilled.
func TestRingFrontFIFOThroughSpill(t *testing.T) {
	const total = 1000
	for _, tc := range []struct {
		name string
		runs []int // commands per push call, cycled; 1 means PushUser
	}{
		{"single", []int{1}},
		{"batch", []int{1, 13, 13, 13, 13, 13, 13, 13, 13, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewRing(QueueWords, nil) // 8 commands of hardware ring
			var batch []Command
			for i, r := 0, 0; i < total; r++ {
				batch = batch[:0]
				for k := 0; k < tc.runs[r%len(tc.runs)] && i < total; k++ {
					batch = append(batch, Command{Tag: int64(i)})
					i++
				}
				if len(batch) == 1 {
					m.PushUser(batch[0])
				} else {
					m.PushUserBatch(batch)
				}
			}
			var buf [16]Command
			seen := 0
			for seen < total {
				n := m.TryNextBatch(buf[:])
				if n == 0 {
					t.Fatalf("ring front ran dry after %d of %d commands", seen, total)
				}
				for i := 0; i < n; i++ {
					if buf[i].Tag != int64(seen) {
						t.Fatalf("command %d out of order: got tag %d", seen, buf[i].Tag)
					}
					seen++
				}
			}
			st := m.Stats().UserSend
			if st.Pushes != total || st.Pops != total {
				t.Errorf("stats pushes/pops = %d/%d, want %d/%d", st.Pushes, st.Pops, total, total)
			}
			if st.Spills != total-8 || st.Refills != st.Spills || st.Interrupts == 0 || st.MaxDepth != 8 {
				t.Errorf("spill accounting off: %+v", st)
			}
			if m.Pending() != 0 {
				t.Errorf("Pending = %d after drain", m.Pending())
			}
		})
	}
}

// TestRingFrontPriority checks replies overtake sends per activation,
// in the hardware's order: rload replies, GET replies, remote access,
// system, user.
func TestRingFrontPriority(t *testing.T) {
	m := NewRing(QueueWords, nil)
	m.PushUser(Command{Tag: 5})
	m.PushSystem(Command{Tag: 4})
	m.PushRemoteAccess(Command{Tag: 3})
	m.PushGetReply(Command{Tag: 2})
	m.PushRemoteLoadReply(Command{Tag: 1})
	var buf [8]Command
	n := m.TryNextBatch(buf[:])
	if n != 5 {
		t.Fatalf("TryNextBatch = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if buf[i].Tag != int64(i+1) {
			t.Errorf("position %d: tag %d, want %d", i, buf[i].Tag, i+1)
		}
	}
}

// TestRingFrontConcurrent runs a producer goroutine against a
// consumer with the doorbell wired, under -race in make verify: every
// command arrives exactly once in order, and the notify count is
// nonzero (the doorbell actually rings). The ring holds two commands
// and the producer pushes three without yielding each time the front
// runs dry, so a full ring plus one spill keeps landing inside the
// consumer's "ring empty, anything spilled?" window (see
// ring.TestOverflowConcurrentFIFO).
func TestRingFrontConcurrent(t *testing.T) {
	var rings atomic.Int64
	m := NewRing(2*CommandWords, func() { rings.Add(1) })
	const total = 1500
	var failed atomic.Bool // stops the producer once the consumer gave up
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total && !failed.Load(); {
			for m.Pending() != 0 && !failed.Load() {
				runtime.Gosched()
			}
			for k := 0; k < 3 && i < total; k++ {
				m.PushUser(Command{Tag: int64(i)})
				i++
			}
		}
	}()
	var buf [32]Command
	idle := 0
	for seen := 0; seen < total; {
		n := m.TryNextBatch(buf[:])
		if n == 0 {
			if idle++; idle%64 == 0 {
				runtime.Gosched()
			}
			continue
		}
		for i := 0; i < n; i++ {
			if buf[i].Tag != int64(seen) {
				failed.Store(true)
				wg.Wait()
				t.Fatalf("command %d: got tag %d (lost or reordered)", seen, buf[i].Tag)
			}
			seen++
		}
	}
	wg.Wait()
	if rings.Load() == 0 {
		t.Error("doorbell never rang")
	}
}

// TestRingFrontCloseAndPanic pins Close semantics: pops report
// closed-and-empty, pushes panic.
func TestRingFrontCloseAndPanic(t *testing.T) {
	m := NewRing(QueueWords, nil)
	m.Close()
	if _, ok := m.TryNext(); ok {
		t.Error("TryNext returned a command from a closed empty MSC")
	}
	defer func() {
		if recover() == nil {
			t.Error("PushUser after Close did not panic")
		}
	}()
	m.PushUser(Command{})
}
