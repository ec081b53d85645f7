package mc

import (
	"runtime"
	"sync"
	"testing"
)

// TestFlagsDense pins the flag file's word layout: the dense run
// keeps the map's semantics (an early increment survives Alloc, the
// implicit flags are independent words), ResetAll wipes everything in
// place without allocating, and an ID far outside the dense range
// works without the file growing in proportion to it.
func TestFlagsDense(t *testing.T) {
	t.Run("IncBeforeAlloc", func(t *testing.T) {
		f := NewFlags()
		f.Inc(1)
		f.Add(2, 3)
		if a := f.Alloc(); a != 1 || f.Load(a) != 1 {
			t.Fatalf("Alloc = %d with value %d, want flag 1 holding the early increment", a, f.Load(a))
		}
		if b := f.Alloc(); b != 2 || f.Load(b) != 3 {
			t.Fatalf("Alloc = %d with value %d, want flag 2 holding 3", b, f.Load(b))
		}
	})

	t.Run("ResetAll", func(t *testing.T) {
		f := NewFlags()
		use := func() {
			for i := 0; i < 100; i++ {
				f.Inc(f.Alloc())
			}
			f.Inc(AckFlagID)
			f.Inc(RemoteAckFlagID)
			f.Inc(AtomicAckFlagID)
		}
		use()
		f.ResetAll()
		if got := f.Increments(); got != 0 {
			t.Errorf("increments after ResetAll = %d, want 0", got)
		}
		for id := AtomicAckFlagID; id <= 100; id++ {
			if v := f.Load(id); v != 0 {
				t.Errorf("flag %d = %d after ResetAll, want 0", id, v)
			}
		}
		if a := f.Alloc(); a != 1 {
			t.Errorf("first Alloc after ResetAll = %d, want 1", a)
		}
		allocs := testing.AllocsPerRun(50, func() {
			use()
			f.ResetAll()
		})
		if allocs != 0 {
			t.Errorf("a job's worth of flags plus ResetAll allocates %.1f objects, want 0", allocs)
		}
	})

	t.Run("ImplicitFlagsIndependent", func(t *testing.T) {
		f := NewFlags()
		f.Add(AckFlagID, 1)
		f.Add(RemoteAckFlagID, 2)
		f.Add(AtomicAckFlagID, 3)
		if a, r, x := f.Load(AckFlagID), f.Load(RemoteAckFlagID), f.Load(AtomicAckFlagID); a != 1 || r != 2 || x != 3 {
			t.Errorf("implicit flags = %d/%d/%d, want 1/2/3", a, r, x)
		}
		f.Reset(RemoteAckFlagID)
		if a, r, x := f.Load(AckFlagID), f.Load(RemoteAckFlagID), f.Load(AtomicAckFlagID); a != 1 || r != 0 || x != 3 {
			t.Errorf("after Reset(RemoteAckFlagID) = %d/%d/%d, want 1/0/3", a, r, x)
		}
		if f.Load(1) != 0 || f.Load(NoFlag) != 0 {
			t.Error("an implicit flag leaked into flag 1 or NoFlag")
		}
	})

	t.Run("FarID", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f := NewFlags()
		const far = FlagID(1 << 30)
		f.Inc(far)
		f.Add(far, 2)
		f.Inc(-1 << 20)
		done := make(chan struct{})
		go func() {
			f.Wait(far, 4)
			close(done)
		}()
		f.Inc(far)
		<-done
		if v := f.Load(far); v != 4 {
			t.Errorf("flag 1<<30 = %d, want 4", v)
		}
		if v := f.Load(-1 << 20); v != 1 {
			t.Errorf("flag -1<<20 = %d, want 1", v)
		}
		if v := f.Load(far - 1); v != 0 {
			t.Errorf("neighbour of flag 1<<30 = %d, want 0", v)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("flag 1<<30 allocated %d bytes, want < 1 MiB", grew)
		}
		f.ResetAll()
		if v := f.Load(far); v != 0 {
			t.Errorf("flag 1<<30 = %d after ResetAll, want 0", v)
		}
	})

	t.Run("ConcurrentIncWait", func(t *testing.T) {
		f := NewFlags()
		const writers, per = 4, 500
		ids := []FlagID{AtomicAckFlagID, AckFlagID, 1, denseFlags, 1 << 30}
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id FlagID) {
				defer wg.Done()
				f.Wait(id, writers*per)
			}(id)
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					for _, id := range ids {
						f.Inc(id)
					}
				}
			}()
		}
		wg.Wait()
		for _, id := range ids {
			if v := f.Load(id); v != writers*per {
				t.Errorf("flag %d = %d, want %d", id, v, writers*per)
			}
		}
		if got, want := f.Increments(), int64(writers*per*len(ids)); got != want {
			t.Errorf("increments = %d, want %d", got, want)
		}
	})
}
