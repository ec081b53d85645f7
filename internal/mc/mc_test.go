package mc

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"ap1000plus/internal/mem"
)

func TestFlagsBasics(t *testing.T) {
	f := NewFlags()
	a := f.Alloc()
	b := f.Alloc()
	if a == b {
		t.Fatal("Alloc returned duplicate IDs")
	}
	f.Inc(a)
	f.Inc(a)
	f.Add(b, 5)
	if f.Load(a) != 2 || f.Load(b) != 5 {
		t.Fatalf("a=%d b=%d", f.Load(a), f.Load(b))
	}
	if f.Increments() != 7 {
		t.Fatalf("Increments = %d", f.Increments())
	}
	f.Reset(a)
	if f.Load(a) != 0 {
		t.Fatal("Reset failed")
	}
}

func TestFlagsNoFlagIgnored(t *testing.T) {
	f := NewFlags()
	f.Inc(NoFlag)
	f.Add(NoFlag, 10)
	f.Wait(NoFlag, 100) // must not block
	if f.Load(NoFlag) != 0 || f.Increments() != 0 {
		t.Fatal("NoFlag should be inert")
	}
}

func TestFlagsWaitBlocksUntilTarget(t *testing.T) {
	f := NewFlags()
	id := f.Alloc()
	done := make(chan struct{})
	go func() {
		f.Wait(id, 3)
		close(done)
	}()
	f.Inc(id)
	f.Inc(id)
	select {
	case <-done:
		t.Fatal("Wait returned before target")
	default:
	}
	f.Inc(id)
	<-done // must complete now
}

func TestFlagsConcurrentIncrements(t *testing.T) {
	f := NewFlags()
	id := f.Alloc()
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Inc(id)
			}
		}()
	}
	f.Wait(id, goroutines*each)
	wg.Wait()
	if f.Load(id) != goroutines*each {
		t.Fatalf("final = %d", f.Load(id))
	}
}

func TestFlagsNegativeAddPanics(t *testing.T) {
	f := NewFlags()
	id := f.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Add(id, -1)
}

func TestMMUMapTranslate(t *testing.T) {
	m := NewMMU(DefaultTLB)
	m.Map(0x1000, 8192)
	if _, err := m.Translate(0x1000, 100); err != nil {
		t.Fatalf("mapped translate failed: %v", err)
	}
	if _, err := m.Translate(0x1000, 8192); err != nil {
		t.Fatalf("spanning translate failed: %v", err)
	}
	if _, err := m.Translate(0x1000, 8193); err == nil {
		t.Fatal("translate past mapping should fault")
	}
	if _, err := m.Translate(0x100000, 1); err == nil {
		t.Fatal("unmapped translate should fault")
	}
	var pf *PageFaultError
	_, err := m.Translate(0x100000, 4)
	if pf, _ = err.(*PageFaultError); pf == nil {
		t.Fatalf("error type = %T", err)
	}
	if pf.Addr != 0x100000 {
		t.Fatalf("fault addr = %#x", pf.Addr)
	}
}

// TestMMUTranslateRange pins the S3.2 illegal-address check at the
// edges of the 64-bit address space: a range whose end wraps past
// 2^64 must fault (and count the fault) instead of translating, and a
// range that ends exactly at 2^64 is checked like any other.
func TestMMUTranslateRange(t *testing.T) {
	top := mem.Addr(math.MaxUint64 - mem.PageSize + 1) // the last page
	for _, c := range []struct {
		name      string
		mapTop    bool
		addr      mem.Addr
		size      int64
		wantFault bool
	}{
		{"mapped", false, 0x1000, 8192, false},
		{"past mapping", false, 0x1000, 8193, true},
		{"wrap by one byte", true, math.MaxUint64 - 7, 9, true},
		{"wrap by a page", true, math.MaxUint64 - 7, 16, true},
		{"size MaxInt64", false, 0x1000, math.MaxInt64, true},
		{"size MaxInt64 from the top", true, top, math.MaxInt64, true},
		{"exact fit, top page unmapped", false, top, mem.PageSize, true},
		{"exact fit, top page mapped", true, top, mem.PageSize, false},
		{"last byte, top page mapped", true, math.MaxUint64, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewMMU(DefaultTLB)
			m.Map(0x1000, 8192)
			if c.mapTop {
				m.Map(top, mem.PageSize)
			}
			_, err := m.Translate(c.addr, c.size)
			if !c.wantFault {
				if err != nil {
					t.Fatalf("Translate(%#x, %d) = %v, want no fault", c.addr, c.size, err)
				}
				if !m.Mapped(c.addr, c.size) {
					t.Errorf("Mapped(%#x, %d) = false", c.addr, c.size)
				}
				return
			}
			if _, ok := err.(*PageFaultError); !ok {
				t.Fatalf("Translate(%#x, %d) error = %v (%T), want *PageFaultError", c.addr, c.size, err, err)
			}
			if f := m.Stats().Faults; f != 1 {
				t.Errorf("Faults = %d, want 1", f)
			}
			if m.Mapped(c.addr, c.size) {
				t.Errorf("Mapped(%#x, %d) = true", c.addr, c.size)
			}
		})
	}
}

func TestMMUOffsetsPreserved(t *testing.T) {
	m := NewMMU(DefaultTLB)
	m.Map(0x4000, 4096)
	p1, err := m.Translate(0x4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Translate(0x4123, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p2-p1 != 0x123 {
		t.Fatalf("page offset not preserved: %#x vs %#x", p1, p2)
	}
}

func TestMMUTLBHitsAndMisses(t *testing.T) {
	m := NewMMU(DefaultTLB)
	m.Map(0x1000, mem.PageSize)
	if _, err := m.Translate(0x1000, 4); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first access: %+v", s)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.Translate(0x1800, 4); err != nil {
			t.Fatal(err)
		}
	}
	s = m.Stats()
	if s.Hits != 10 || s.Misses != 1 {
		t.Fatalf("after re-access: %+v", s)
	}
}

func TestMMUDirectMappedConflict(t *testing.T) {
	// Two pages that collide in a direct-mapped TLB of 256 entries:
	// page N and page N+256.
	m := NewMMU(DefaultTLB)
	a := mem.Addr(5 * mem.PageSize)
	b := mem.Addr((5 + 256) * mem.PageSize)
	m.Map(a, mem.PageSize)
	m.Map(b, mem.PageSize)
	m.Translate(a, 4)
	m.Translate(b, 4) // evicts a
	m.Translate(a, 4) // must miss again
	s := m.Stats()
	if s.Misses != 3 {
		t.Fatalf("conflict misses = %d, want 3 (stats %+v)", s.Misses, s)
	}
}

func TestMMUUnmap(t *testing.T) {
	m := NewMMU(DefaultTLB)
	m.Map(0x1000, 4096)
	m.Translate(0x1000, 4)
	m.Unmap(0x1000, 4096)
	if _, err := m.Translate(0x1000, 4); err == nil {
		t.Fatal("translate after unmap should fault (TLB must be invalidated)")
	}
	if !m.Mapped(0x1000, 4) == false {
		t.Fatal("Mapped should be false")
	}
	faults := m.Stats().Faults
	if faults < 1 {
		t.Fatalf("faults = %d", faults)
	}
}

func TestMMUBigPagePromotion(t *testing.T) {
	m := NewMMU(DefaultTLB)
	// Map a full 256KB-aligned big page worth of small pages.
	m.Map(0, mem.BigPageSize)
	// Touch every small page once (misses), then re-touch: big TLB
	// should serve them as hits.
	for p := uint64(0); p < mem.BigPageSize/mem.PageSize; p++ {
		if _, err := m.Translate(mem.Addr(p*mem.PageSize), 4); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Stats()
	for p := uint64(0); p < mem.BigPageSize/mem.PageSize; p++ {
		if _, err := m.Translate(mem.Addr(p*mem.PageSize), 4); err != nil {
			t.Fatal(err)
		}
	}
	after := m.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("second sweep missed: %+v -> %+v", before, after)
	}
}

// Property: translation faults exactly outside the mapped range.
func TestMMUFaultBoundaryProperty(t *testing.T) {
	prop := func(pages uint8) bool {
		n := int64(pages%8) + 1
		m := NewMMU(DefaultTLB)
		base := mem.Addr(16 * mem.PageSize)
		m.Map(base, n*mem.PageSize)
		if _, err := m.Translate(base+mem.Addr(n*mem.PageSize)-1, 1); err != nil {
			return false
		}
		if _, err := m.Translate(base+mem.Addr(n*mem.PageSize), 1); err == nil {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommRegsStoreLoad32(t *testing.T) {
	c := NewCommRegs()
	if c.Present(3) {
		t.Fatal("p-bit should start clear")
	}
	c.Store32(3, 0xdeadbeef)
	if !c.Present(3) {
		t.Fatal("p-bit should be set after store")
	}
	if v := c.Load32(3); v != 0xdeadbeef {
		t.Fatalf("Load32 = %#x", v)
	}
	if c.Present(3) {
		t.Fatal("load must clear the p-bit")
	}
}

func TestCommRegsStoreLoad64(t *testing.T) {
	c := NewCommRegs()
	pi := math.Float64bits(3.14159)
	c.Store64(10, pi)
	if got := c.Load64(10); got != pi {
		t.Fatalf("Load64 = %#x want %#x", got, pi)
	}
}

func TestCommRegsLoadBlocksUntilStore(t *testing.T) {
	c := NewCommRegs()
	got := make(chan uint32, 1)
	go func() { got <- c.Load32(7) }()
	select {
	case v := <-got:
		t.Fatalf("load returned %d before any store", v)
	default:
	}
	c.Store32(7, 99)
	if v := <-got; v != 99 {
		t.Fatalf("got %d", v)
	}
}

func TestCommRegsOverwriteCounted(t *testing.T) {
	c := NewCommRegs()
	c.Store32(0, 1)
	c.Store32(0, 2)
	if s := c.Stats(); s.Overwrites != 1 {
		t.Fatalf("overwrites = %d", s.Overwrites)
	}
	if v := c.Load32(0); v != 2 {
		t.Fatalf("v = %d", v)
	}
}

func TestCommRegsTryLoad(t *testing.T) {
	c := NewCommRegs()
	if _, ok := c.TryLoad32(1); ok {
		t.Fatal("TryLoad on empty register should fail")
	}
	c.Store32(1, 42)
	v, ok := c.TryLoad32(1)
	if !ok || v != 42 {
		t.Fatalf("TryLoad = %d,%v", v, ok)
	}
	if _, ok := c.TryLoad32(1); ok {
		t.Fatal("second TryLoad should fail (p-bit cleared)")
	}
}

func TestCommRegsBoundsPanic(t *testing.T) {
	c := NewCommRegs()
	for _, f := range []func(){
		func() { c.Store32(-1, 0) },
		func() { c.Store32(NumCommRegs, 0) },
		func() { c.Store64(NumCommRegs-1, 0) },
		func() { c.Store64(3, 0) }, // unaligned pair
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

func TestCommRegsProducerConsumer(t *testing.T) {
	// A pipeline through one register: the p-bit handshake makes
	// every value observed exactly once, in order.
	c := NewCommRegs()
	const n = 200
	var got []uint32
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			got = append(got, c.Load32(5))
		}
		close(done)
	}()
	for i := 0; i < n; i++ {
		// Wait until consumed before next store (correct protocol).
		for c.Present(5) {
			runtime.Gosched()
		}
		c.Store32(5, uint32(i))
	}
	<-done
	for i := 0; i < n; i++ {
		if got[i] != uint32(i) {
			t.Fatalf("got[%d] = %d", i, got[i])
		}
	}
	if s := c.Stats(); s.Overwrites != 0 {
		t.Fatalf("overwrites = %d, want 0 for a correct protocol", s.Overwrites)
	}
}

func BenchmarkFlagIncWait(b *testing.B) {
	f := NewFlags()
	id := f.Alloc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Inc(id)
		f.Wait(id, int64(i+1))
	}
}

func BenchmarkCommRegHandshake(b *testing.B) {
	c := NewCommRegs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Store32(0, uint32(i))
		c.Load32(0)
	}
}
