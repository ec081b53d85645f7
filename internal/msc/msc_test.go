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

// The reply queues are the same ringQueue as the send queues; these
// tests drive them through the MSC's reply pushes and TryNext, which
// pops rload replies, then GET replies, ahead of everything else.

func TestMSCReplyFIFO(t *testing.T) {
	m := NewRing(QueueWords, nil)
	for i := 0; i < 5; i++ {
		m.PushGetReply(cmd(i))
	}
	for i := 0; i < 5; i++ {
		c, ok := m.TryNext()
		if !ok || c.Tag != int64(i) {
			t.Fatalf("pop %d = %+v, %v", i, c, ok)
		}
	}
	if _, ok := m.TryNext(); ok {
		t.Fatal("pop from empty should fail")
	}
}

func TestMSCReplyCapacityIs8Commands(t *testing.T) {
	m := NewRing(QueueWords, nil)
	for i := 0; i < 8; i++ {
		m.PushRemoteLoadReply(cmd(i))
	}
	if s := m.Stats().RemoteLoadReply; s.Spills != 0 || s.MaxDepth != 8 {
		t.Fatalf("stats after 8 pushes: %+v", s)
	}
	m.PushRemoteLoadReply(cmd(8))
	if s := m.Stats().RemoteLoadReply; s.Spills != 1 {
		t.Fatalf("9th push should spill: %+v", s)
	}
}

func TestMSCReplySpillAndRefill(t *testing.T) {
	m := NewRing(QueueWords, nil)
	const n = 100
	for i := 0; i < n; i++ {
		m.PushGetReply(cmd(i))
	}
	if m.Pending() != n {
		t.Fatalf("Pending = %d", m.Pending())
	}
	// FIFO preserved across spills.
	for i := 0; i < n; i++ {
		c, ok := m.TryNext()
		if !ok || c.Tag != int64(i) {
			t.Fatalf("pop %d = %+v, %v", i, c, ok)
		}
	}
	s := m.Stats().GetReply
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

// TestMSCReplyInterruptPerEpisode pins the reply queues' refill
// interrupt rule, the send queues' and MLSim's: one OS interrupt per
// spill-service episode, however many refills the episode takes. A
// reply pushed between pops of one episode stays in it; an episode
// ends when a pop is served by the hardware ring or finds the queue
// empty.
func TestMSCReplyInterruptPerEpisode(t *testing.T) {
	m := NewRing(QueueWords, nil)
	drain := func() {
		for {
			if _, ok := m.TryNext(); !ok {
				return
			}
		}
	}
	// 100 replies: 92 spill, refilled in 12 batches of at most 8, one
	// episode.
	for i := 0; i < 100; i++ {
		m.PushGetReply(cmd(i))
	}
	for i := 0; i < 50; i++ {
		m.TryNext()
	}
	m.PushGetReply(cmd(100)) // joins the spill behind the episode
	drain()
	if s := m.Stats().GetReply; s.Interrupts != 1 || s.Refills != 93 {
		t.Fatalf("one episode: %+v, want 1 interrupt and 93 refills", s)
	}
	// A second overflow is a second episode.
	for i := 0; i < 20; i++ {
		m.PushGetReply(cmd(i))
	}
	drain()
	if s := m.Stats().GetReply; s.Interrupts != 2 || s.Refills != 105 {
		t.Fatalf("two episodes: %+v, want 2 interrupts and 105 refills", s)
	}
}

// Once spilling starts, later pushes must keep spilling (not jump the
// queue) even if the hardware FIFO has space, or ordering breaks.
func TestMSCReplyNoReorderAfterSpill(t *testing.T) {
	m := NewRing(QueueWords, nil)
	for i := 0; i < 9; i++ { // 8 hw + 1 spill
		m.PushGetReply(cmd(i))
	}
	m.TryNext() // hw has space now
	m.PushGetReply(cmd(9))
	var got []int64
	for {
		c, ok := m.TryNext()
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

// Property: any push/pop interleaving on a reply queue preserves FIFO
// order.
func TestMSCReplyFIFOProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		m := NewRing(QueueWords, nil)
		next := 0
		expect := 0
		for _, push := range ops {
			if push {
				m.PushRemoteLoadReply(cmd(next))
				next++
			} else if c, ok := m.TryNext(); ok {
				if c.Tag != int64(expect) {
					return false
				}
				expect++
			}
		}
		for {
			c, ok := m.TryNext()
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

func TestMSCPriorityOrder(t *testing.T) {
	m := NewRing(QueueWords, nil)
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
	m := NewRing(QueueWords, nil)
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
	m := NewRing(QueueWords, nil)
	m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.PushUser(Command{})
}

func TestMSCTryNext(t *testing.T) {
	m := NewRing(QueueWords, nil)
	if _, ok := m.TryNext(); ok {
		t.Fatal("TryNext on empty should fail")
	}
	m.PushUser(Command{Tag: 1})
	if c, ok := m.TryNext(); !ok || c.Tag != 1 {
		t.Fatalf("TryNext = %+v %v", c, ok)
	}
}

// TestMSCConcurrentProducersConsumer drives the MSC under the
// contract the machine uses: each queue has one producer — the CPU
// goroutine's send queues and the receive controller's reply queues,
// here one goroutine per queue — and one consumer pops. Every command
// arrives exactly once, and each queue's commands arrive in push
// order. Two-command queues keep every queue spilling to DRAM and
// refilling.
func TestMSCConcurrentProducersConsumer(t *testing.T) {
	m := NewRing(2*CommandWords, nil)
	const each = 400
	push := []func(Command){m.PushUser, m.PushSystem, m.PushRemoteAccess, m.PushGetReply, m.PushRemoteLoadReply}
	total := each * len(push)
	// Port names the queue, Tag the command's sequence number on it.
	var wg sync.WaitGroup
	for q, p := range push {
		wg.Add(1)
		go func(q int32, p func(Command)) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p(Command{Port: q, Tag: int64(i)})
			}
		}(int32(q), p)
	}
	next := make(map[int32]int64)
	var buf [8]Command
	for seen := 0; seen < total; {
		n := m.TryNextBatch(buf[:])
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for _, c := range buf[:n] {
			if c.Tag != next[c.Port] {
				t.Fatalf("queue %d: got seq %d, want %d (lost, duplicated or reordered)", c.Port, c.Tag, next[c.Port])
			}
			next[c.Port]++
			seen++
		}
	}
	wg.Wait()
	if _, ok := m.TryNext(); ok || m.Pending() != 0 {
		t.Fatalf("commands left after all %d arrived: pending = %d", total, m.Pending())
	}
	s := m.Stats()
	for _, q := range []QueueStats{s.UserSend, s.SysSend, s.RemoteAccess, s.GetReply, s.RemoteLoadReply} {
		if q.Pushes != each || q.Pops != each {
			t.Fatalf("push/pop counts off: %+v", s)
		}
	}
}

func TestMSCStats(t *testing.T) {
	m := NewRing(QueueWords, nil)
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
	m := NewRing(QueueWords, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PushUser(Command{Tag: int64(i)})
		m.TryNext()
	}
}

// TestMSCPushUserBatchSingleWakeup rings the doorbell once for a
// whole batch, preserves order, and an empty batch is a no-op even on
// a closed MSC.
func TestMSCPushUserBatchSingleWakeup(t *testing.T) {
	rings := 0
	m := NewRing(QueueWords, func() { rings++ })
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
	if rings != 2 {      // one for the batch, one for Close
		t.Fatalf("doorbell rang %d times, want 2", rings)
	}
}

// TestNewRingRejectsBadSizes pins the sizes an MSC+ refuses: below
// one command, not a whole number of commands, a command count that
// is not a power of two (the send rings would round it up and run
// deeper than the reply queues), and a single command (the send
// rings hold at least two).
func TestNewRingRejectsBadSizes(t *testing.T) {
	for _, words := range []int{4, 8, 19, 24, 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRing(%d) did not panic", words)
				}
			}()
			NewRing(words, nil)
		}()
	}
}
