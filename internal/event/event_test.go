package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMicroseconds(t *testing.T) {
	cases := []struct {
		us   float64
		want Time
	}{
		{0, 0},
		{0.04, 40},
		{0.16, 160},
		{1.0, 1000},
		{20.0, 20000},
		{0.0004, 0}, // rounds down below 0.5ns
		{0.0006, 1},
		{-1.5, -1500},
		{-0.0004, 0}, // negatives round by magnitude, as positives do
		{-0.0006, -1},
	}
	for _, c := range cases {
		if got := Microseconds(c.us); got != c.want {
			t.Errorf("Microseconds(%v) = %v, want %v", c.us, got, c.want)
		}
	}
}

func TestTimeUs(t *testing.T) {
	if got := (1500 * Nanosecond).Us(); got != 1.5 {
		t.Errorf("Us() = %v, want 1.5", got)
	}
	if s := (12340 * Nanosecond).String(); s != "12.340us" {
		t.Errorf("String() = %q", s)
	}
}

func TestKernelOrdering(t *testing.T) {
	var k Kernel
	var got []int
	k.At(30, func(Time) { got = append(got, 3) })
	k.At(10, func(Time) { got = append(got, 1) })
	k.At(20, func(Time) { got = append(got, 2) })
	end := k.Run()
	if end != 30 {
		t.Fatalf("end = %v, want 30", end)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestKernelFIFOTies(t *testing.T) {
	var k Kernel
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(42, func(Time) { got = append(got, i) })
	}
	k.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("equal-timestamp events not FIFO: %v", got[:10])
	}
}

func TestKernelAfterAndNow(t *testing.T) {
	var k Kernel
	var at1, at2 Time
	k.After(100, func(now Time) {
		at1 = now
		k.After(50, func(now Time) { at2 = now })
	})
	k.Run()
	if at1 != 100 || at2 != 150 {
		t.Fatalf("at1=%v at2=%v", at1, at2)
	}
	if k.Executed() != 2 {
		t.Fatalf("executed = %d", k.Executed())
	}
}

func TestKernelCancel(t *testing.T) {
	var k Kernel
	fired := false
	e := k.At(10, func(Time) { fired = true })
	if !k.Cancel(e) {
		t.Fatal("first cancel should succeed")
	}
	if k.Cancel(e) {
		t.Fatal("second cancel should fail")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelCancelMiddle(t *testing.T) {
	var k Kernel
	var got []int
	k.At(10, func(Time) { got = append(got, 1) })
	e := k.At(20, func(Time) { got = append(got, 2) })
	k.At(30, func(Time) { got = append(got, 3) })
	k.Cancel(e)
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	var k Kernel
	k.At(100, func(Time) {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.At(50, func(Time) {})
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	var k Kernel
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	k.After(-1, func(Time) {})
}

func TestRunUntil(t *testing.T) {
	var k Kernel
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.At(at, func(now Time) { got = append(got, now) })
	}
	k.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("got %v events, want 2", got)
	}
	if k.Now() != 25 {
		t.Fatalf("now = %v, want 25", k.Now())
	}
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	k.Run()
	if len(got) != 4 || k.Now() != 40 {
		t.Fatalf("after Run: got=%v now=%v", got, k.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var k Kernel
	k.RunUntil(1000)
	if k.Now() != 1000 {
		t.Fatalf("now = %v", k.Now())
	}
}

// Property: executing any set of scheduled times yields them in
// nondecreasing order, regardless of insertion order.
func TestKernelSortedProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		var k Kernel
		var fired []Time
		for _, d := range delays {
			k.At(Time(d), func(now Time) { fired = append(fired, now) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i-1] > fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset removes exactly that subset.
func TestKernelCancelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var k Kernel
		n := 1 + rng.Intn(64)
		fired := make([]bool, n)
		events := make([]Event, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = k.At(Time(rng.Intn(100)), func(Time) { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				if !k.Cancel(events[i]) {
					t.Fatal("cancel of pending event failed")
				}
			}
		}
		k.Run()
		for i := 0; i < n; i++ {
			if fired[i] == cancelled[i] {
				t.Fatalf("trial %d event %d: fired=%v cancelled=%v", trial, i, fired[i], cancelled[i])
			}
		}
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var k Kernel
		for j := 0; j < 64; j++ {
			k.At(Time(j%7), func(Time) {})
		}
		k.Run()
	}
}

// The kernel observer fires once per executed event with monotonic
// time and an accurate executed count — the contract the timeline
// layer relies on.
func TestKernelObserver(t *testing.T) {
	var k Kernel
	var calls int64
	last := Time(-1)
	k.SetObserver(func(now Time, executed int64, pending int) {
		calls++
		if executed != calls {
			t.Fatalf("executed = %d after %d calls", executed, calls)
		}
		if now < last {
			t.Fatalf("observer time went backwards: %v < %v", now, last)
		}
		if pending != k.Pending() {
			t.Fatalf("pending = %d, kernel says %d", pending, k.Pending())
		}
		last = now
	})
	for i := 0; i < 10; i++ {
		k.At(Time(i%3), func(Time) {})
	}
	k.Run()
	if calls != 10 {
		t.Fatalf("observer called %d times, want 10", calls)
	}
	k.SetObserver(nil)
	k.At(k.Now(), func(Time) {})
	k.Run()
	if calls != 10 {
		t.Fatal("observer fired after removal")
	}
}
