package msc

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func cmd(i int) Command {
	return Command{Op: OpPut, Src: 0, Dst: 1, Tag: int64(i)}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue("q", QueueWords)
	for i := 0; i < 5; i++ {
		q.Push(cmd(i))
	}
	for i := 0; i < 5; i++ {
		c, ok := q.Pop()
		if !ok || c.Tag != int64(i) {
			t.Fatalf("pop %d = %+v, %v", i, c, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty should fail")
	}
}

func TestQueueCapacityIs8Commands(t *testing.T) {
	q := NewQueue("q", QueueWords)
	for i := 0; i < 8; i++ {
		q.Push(cmd(i))
	}
	if s := q.Stats(); s.Spills != 0 || s.MaxDepth != 8 {
		t.Fatalf("stats after 8 pushes: %+v", s)
	}
	q.Push(cmd(8))
	if s := q.Stats(); s.Spills != 1 {
		t.Fatalf("9th push should spill: %+v", s)
	}
}

func TestQueueOverflowSpillAndRefill(t *testing.T) {
	q := NewQueue("q", QueueWords)
	const n = 100
	for i := 0; i < n; i++ {
		q.Push(cmd(i))
	}
	if q.Len() != n {
		t.Fatalf("Len = %d", q.Len())
	}
	// FIFO preserved across spills.
	for i := 0; i < n; i++ {
		c, ok := q.Pop()
		if !ok || c.Tag != int64(i) {
			t.Fatalf("pop %d = %+v, %v", i, c, ok)
		}
	}
	s := q.Stats()
	if s.Spills != n-8 {
		t.Fatalf("spills = %d, want %d", s.Spills, n-8)
	}
	if s.Refills != n-8 {
		t.Fatalf("refills = %d, want %d", s.Refills, n-8)
	}
	if s.Interrupts == 0 {
		t.Fatal("refill must take OS interrupts")
	}
	if s.MaxDepth > 8 {
		t.Fatalf("hardware depth exceeded capacity: %d", s.MaxDepth)
	}
}

// Once spilling starts, later pushes must keep spilling (not jump the
// queue) even if the hardware FIFO has space, or ordering breaks.
func TestQueueNoReorderAfterSpill(t *testing.T) {
	q := NewQueue("q", QueueWords)
	for i := 0; i < 9; i++ { // 8 hw + 1 spill
		q.Push(cmd(i))
	}
	q.Pop() // hw has space now
	q.Push(cmd(9))
	var got []int64
	for {
		c, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, c.Tag)
	}
	want := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order broken: got %v", got)
		}
	}
}

// Property: any push/pop interleaving preserves FIFO order.
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		q := NewQueue("q", QueueWords)
		next := 0
		expect := 0
		for _, push := range ops {
			if push {
				q.Push(cmd(next))
				next++
			} else if c, ok := q.Pop(); ok {
				if c.Tag != int64(expect) {
					return false
				}
				expect++
			}
		}
		for {
			c, ok := q.Pop()
			if !ok {
				break
			}
			if c.Tag != int64(expect) {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueueTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueue("q", 4)
}

func TestMSCPriorityOrder(t *testing.T) {
	m := New()
	m.PushUser(Command{Op: OpPut, Tag: 1})
	m.PushSystem(Command{Op: OpPut, Tag: 2})
	m.PushRemoteAccess(Command{Op: OpRemoteLoad, Tag: 3})
	m.PushGetReply(Command{Op: OpGetReply, Tag: 4})
	m.PushRemoteLoadReply(Command{Op: OpRemoteLoadReply, Tag: 5})
	want := []int64{5, 4, 3, 2, 1}
	for _, w := range want {
		c, ok := m.TryNext()
		if !ok || c.Tag != w {
			t.Fatalf("TryNext = %+v, %v; want tag %d", c, ok, w)
		}
	}
}

func TestMSCCloseDrains(t *testing.T) {
	m := New()
	m.PushUser(Command{Tag: 1})
	m.Close()
	if c, ok := m.TryNext(); !ok || c.Tag != 1 {
		t.Fatalf("queued command lost at close: %+v %v", c, ok)
	}
	if _, ok := m.TryNext(); ok {
		t.Fatal("TryNext after drain+close should report empty")
	}
}

func TestMSCPushAfterClosePanics(t *testing.T) {
	m := New()
	m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.PushUser(Command{})
}

func TestMSCTryNext(t *testing.T) {
	m := New()
	if _, ok := m.TryNext(); ok {
		t.Fatal("TryNext on empty should fail")
	}
	m.PushUser(Command{Tag: 1})
	if c, ok := m.TryNext(); !ok || c.Tag != 1 {
		t.Fatalf("TryNext = %+v %v", c, ok)
	}
}

func TestMSCConcurrentProducersConsumer(t *testing.T) {
	m := New()
	const producers, each = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.PushUser(Command{Tag: int64(p*each + i)})
			}
		}(p)
	}
	seen := make(map[int64]bool)
	for len(seen) < producers*each {
		c, ok := m.TryNext()
		if !ok {
			runtime.Gosched()
			continue
		}
		if seen[c.Tag] {
			t.Fatalf("duplicate tag %d", c.Tag)
		}
		seen[c.Tag] = true
	}
	wg.Wait()
	if m.Pending() != 0 {
		t.Fatalf("pending = %d", m.Pending())
	}
}

func TestMSCStats(t *testing.T) {
	m := New()
	for i := 0; i < 20; i++ {
		m.PushUser(Command{Tag: int64(i)})
	}
	for i := 0; i < 20; i++ {
		m.TryNext()
	}
	s := m.Stats()
	if s.UserSend.Pushes != 20 || s.UserSend.Pops != 20 {
		t.Fatalf("user send stats: %+v", s.UserSend)
	}
	if s.UserSend.Spills != 12 {
		t.Fatalf("spills = %d, want 12", s.UserSend.Spills)
	}
}

func TestOpString(t *testing.T) {
	if OpPut.String() != "put" || OpRemoteLoadReply.String() != "rload-reply" {
		t.Error("op names wrong")
	}
}

func BenchmarkMSCPushPop(b *testing.B) {
	m := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PushUser(Command{Tag: int64(i)})
		m.TryNext()
	}
}

// TestQueuePushBatchOrderAndSpill reserves ring space for a whole
// batch at once: commands beyond the hardware capacity spill to DRAM
// in one accounting step, and FIFO order survives the refill.
func TestQueuePushBatchOrderAndSpill(t *testing.T) {
	q := NewQueue("q", QueueWords)
	batch := make([]Command, 13)
	for i := range batch {
		batch[i] = cmd(i)
	}
	q.PushBatch(batch)
	s := q.Stats()
	if s.Pushes != 13 || s.Spills != 5 {
		t.Fatalf("stats after 13-command batch into an 8-deep ring: %+v", s)
	}
	for i := 0; i < 13; i++ {
		c, ok := q.Pop()
		if !ok || c.Tag != int64(i) {
			t.Fatalf("pop %d = %+v, %v", i, c, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestQueuePushBatchAfterSpillStaysOrdered mixes a single push that
// already spilled with a following batch: the batch must queue behind
// the spilled command, never overtake it.
func TestQueuePushBatchAfterSpillStaysOrdered(t *testing.T) {
	q := NewQueue("q", QueueWords)
	for i := 0; i < 9; i++ { // 9th spills
		q.Push(cmd(i))
	}
	q.PushBatch([]Command{cmd(9), cmd(10)})
	for i := 0; i < 11; i++ {
		c, ok := q.Pop()
		if !ok || c.Tag != int64(i) {
			t.Fatalf("pop %d = %+v, %v", i, c, ok)
		}
	}
}

// TestMSCPushUserBatchSingleWakeup rings the ring front's doorbell
// once for a whole batch, preserves order, and an empty batch is a
// no-op even on a closed MSC — on both fronts.
func TestMSCPushUserBatchSingleWakeup(t *testing.T) {
	rings := 0
	for _, m := range []*MSC{New(), NewRing(QueueWords, func() { rings++ })} {
		m.PushUserBatch([]Command{cmd(0), cmd(1), cmd(2), cmd(3)})
		var buf [8]Command
		if n := m.TryNextBatch(buf[:]); n != 4 {
			t.Fatalf("got %d commands, want 4", n)
		}
		for i := 0; i < 4; i++ {
			if buf[i].Tag != int64(i) {
				t.Fatalf("batch out of order: %v", buf[:4])
			}
		}
		m.Close()
		m.PushUserBatch(nil) // must not panic: empty batches never touch the queue
	}
	if rings != 2 { // one for the batch, one for Close
		t.Fatalf("doorbell rang %d times, want 2", rings)
	}
}
