package apsan

import (
	"strings"
	"testing"
)

// Two writes to the same granule from different threads with no edge
// between them must be reported; with a release/acquire edge they
// must not.
func TestUnorderedWritesReported(t *testing.T) {
	s := New(2)
	a, b := s.CPU(0), s.CPU(1)
	s.Access(a, 0, 0, true, 0, 0x1000, 8, 1, 0, "write A")
	s.Access(b, 0, 1, true, 0, 0x1000, 8, 1, 0, "write B")
	if err := s.Err(); err == nil {
		t.Fatal("unordered conflicting writes not reported")
	} else if !strings.Contains(err.Error(), "write A") {
		t.Errorf("report does not name the earlier site: %v", err)
	}
}

func TestReleaseAcquireOrders(t *testing.T) {
	s := New(2)
	a, b := s.CPU(0), s.CPU(1)
	s.Access(a, 0, 0, true, 0, 0x1000, 8, 1, 0, "write A")
	tok := s.Release(a)
	s.Acquire(b, tok)
	s.Access(b, 0, 1, true, 0, 0x1000, 8, 1, 0, "write B")
	if err := s.Err(); err != nil {
		t.Fatalf("ordered writes reported as race: %v", err)
	}
}

func TestReleaseDoesNotCoverLaterAccesses(t *testing.T) {
	s := New(2)
	a, b := s.CPU(0), s.CPU(1)
	tok := s.Release(a)
	s.Access(a, 0, 0, true, 0, 0x1000, 8, 1, 0, "write after release")
	s.Acquire(b, tok)
	s.Access(b, 0, 1, false, 0, 0x1000, 8, 1, 0, "read B")
	if s.Err() == nil {
		t.Fatal("write made after the release must not be ordered by it")
	}
}

func TestFlagEdge(t *testing.T) {
	s := New(2)
	ctl, cpu := s.Ctl(0), s.CPU(1)
	s.Access(ctl, 0, 0, true, 1, 0x2000, 8, 4, 0, "PUT receive DMA write")
	s.FlagInc(ctl, 0, 1, 7)
	s.FlagWaited(cpu, 1, 7)
	s.Access(cpu, 0, 1, false, 1, 0x2000, 8, 4, 0, "read")
	if err := s.Err(); err != nil {
		t.Fatalf("flag-ordered read flagged: %v", err)
	}
	// NoFlag must be inert.
	s2 := New(2)
	s2.Access(s2.Ctl(0), 0, 0, true, 1, 0x2000, 8, 1, 0, "w")
	s2.FlagInc(s2.Ctl(0), 0, 1, 0)
	s2.FlagWaited(s2.CPU(1), 1, 0)
	s2.Access(s2.CPU(1), 0, 1, false, 1, 0x2000, 8, 1, 0, "r")
	if s2.Err() == nil {
		t.Fatal("NoFlag created a happens-before edge")
	}
}

// A barrier orders CPU work against CPU work, but must NOT order a
// DMA write the issuing CPU never awaited — the Ack & Barrier rule.
func TestBarrierOrdersCPUsNotInflightDMA(t *testing.T) {
	s := New(2)
	cpu0, cpu1, ctl0 := s.CPU(0), s.CPU(1), s.Ctl(0)

	// CPU-side write, then barrier: ordered.
	s.Access(cpu0, 0, 0, true, 0, 0x3000, 8, 1, 0, "cpu write")
	tok0 := s.BarrierArrive(cpu0, 0, 2)
	tok1 := s.BarrierArrive(cpu1, 0, 2)
	s.BarrierDone(cpu0, tok0)
	s.BarrierDone(cpu1, tok1)
	s.Access(cpu1, 0, 1, false, 0, 0x3000, 8, 1, 0, "cpu read")
	if err := s.Err(); err != nil {
		t.Fatalf("barrier-ordered accesses flagged: %v", err)
	}

	// DMA write by the controller, unacknowledged, then barrier: the
	// controller's clock never reached the episode, so a read after
	// the barrier still races.
	s.Access(ctl0, 0, 0, true, 1, 0x4000, 8, 1, 0, "PUT receive DMA write")
	tok0 = s.BarrierArrive(cpu0, 0, 2)
	tok1 = s.BarrierArrive(cpu1, 0, 2)
	s.BarrierDone(cpu0, tok0)
	s.BarrierDone(cpu1, tok1)
	s.Access(cpu1, 0, 1, false, 1, 0x4000, 8, 1, 0, "read after barrier")
	if s.Err() == nil {
		t.Fatal("barrier must not order an in-flight DMA write (Ack & Barrier)")
	}
}

func TestStridePrecision(t *testing.T) {
	s := New(2)
	a, b := s.Ctl(0), s.Ctl(1)
	// Interleaved combs: a writes granules 0,2,4..., b writes 1,3,5...
	// (redistribute's block<->cyclic pattern). Disjoint, so clean.
	s.Access(a, 0, 0, true, 0, 0x5000, 8, 4, 8, "stride A")
	s.Access(b, 0, 1, true, 0, 0x5008, 8, 4, 8, "stride B")
	if err := s.Err(); err != nil {
		t.Fatalf("disjoint interleaved strides flagged: %v", err)
	}
	// Shift b onto a's granules: must be reported.
	s.Access(b, 0, 1, true, 0, 0x5010, 8, 2, 8, "stride B overlap")
	if s.Err() == nil {
		t.Fatal("overlapping strides not reported")
	}
}

func TestCregHandshake(t *testing.T) {
	s := New(2)
	ctl0, cpu1 := s.Ctl(0), s.CPU(1)
	s.Access(ctl0, 0, 0, true, 0, 0x6000, 8, 1, 0, "w")
	s.CregStore(ctl0, 0, 1, 4, 2)
	s.CregLoaded(cpu1, 1, 4, 2)
	s.Access(cpu1, 0, 1, false, 0, 0x6000, 8, 1, 0, "r")
	if err := s.Err(); err != nil {
		t.Fatalf("creg-ordered accesses flagged: %v", err)
	}
}

func TestReportsDedupAndSites(t *testing.T) {
	s := New(2)
	a, b := s.CPU(0), s.CPU(1)
	s.Access(a, 0, 0, true, 0, 0x7000, 8, 4, 0, "writer")
	s.Access(b, 0, 1, false, 0, 0x7000, 8, 4, 0, "reader")
	s.Access(b, 0, 1, false, 0, 0x7000, 8, 4, 0, "reader")
	reports := s.Reports()
	if len(reports) != 1 {
		t.Fatalf("want 1 deduplicated report, got %d", len(reports))
	}
	r := reports[0]
	if r.Prior.Op != "writer" || r.Access.Op != "reader" {
		t.Errorf("sites mislabeled: %+v", r)
	}
	if r.Lo != 0x7000 || r.Hi != 0x7018 {
		t.Errorf("conflict range [%#x,%#x] wrong", r.Lo, r.Hi)
	}
	if r.Prior.MemCell != 0 {
		t.Errorf("memory cell %d, want 0", r.Prior.MemCell)
	}
}

// A packet's token is its sender's clock frozen at transmit: hooks run
// under it must not cover a release the sending thread acquires after
// the token was taken, while the thread's live clock does.
func TestTokenFrozenAtRelease(t *testing.T) {
	for _, frozen := range []bool{true, false} {
		s := New(2)
		ctl0, cpu0, cpu1 := s.Ctl(0), s.CPU(0), s.CPU(1)
		h := s.ReleaseHandle(ctl0) // the PUT's packet leaves cell 0
		s.Access(cpu0, 0, 0, true, 0, 0x1000, 8, 1, 0, "CPU write after the send")
		s.AcquireHandle(ctl0, s.ReleaseHandle(cpu0)) // the next command
		if !frozen {
			s.Drop(h)
			h = 0
		}
		s.FlagInc(ctl0, h, 1, 7) // the PUT's receive flag
		s.FlagWaited(cpu1, 1, 7)
		s.Access(cpu1, 0, 1, true, 0, 0x1000, 8, 1, 0, "PUT receive DMA write")
		if got := s.Err() != nil; got != frozen {
			t.Errorf("frozen=%v: race reported = %v", frozen, got)
		}
		s.Drop(h)
		if err := s.TokenErr(); err != nil {
			t.Errorf("frozen=%v: %v", frozen, err)
		}
	}
}

// Every packet token is consumed exactly once. A hook that names a
// consumed handle skipped its checks, and one left parked leaked: both
// fail the token discipline, and a skipped hook fails the run.
func TestTokenDiscipline(t *testing.T) {
	s := New(2)
	ctl0 := s.Ctl(0)
	h := s.ReleaseHandle(ctl0)
	c := s.Copy(h)
	if c == 0 || c == h {
		t.Fatalf("Copy(%d) = %d, want a fresh handle", h, c)
	}
	if err := s.TokenErr(); err == nil {
		t.Fatal("two parked tokens not reported")
	}
	s.Drop(h)
	s.FlagInc(ctl0, c, 1, 7) // the copy outlives its original
	s.Drop(c)
	if err := s.TokenErr(); err != nil {
		t.Fatalf("consumed discipline reported: %v", err)
	}
	if s.Copy(h) != 0 {
		t.Fatal("Copy of a consumed handle parked a token")
	}
	if err := s.Err(); err != nil {
		t.Fatalf("clean run reported: %v", err)
	}
	s.Access(ctl0, h, 1, true, 1, 0x1000, 8, 1, 0, "DMA under a consumed token")
	if err := s.TokenErr(); err == nil {
		t.Fatal("hook under a consumed token not reported by TokenErr")
	}
	if err := s.Err(); err == nil {
		t.Fatal("hook under a consumed token not reported by Err")
	}
}

// Barrier episodes are per S-net domain: one domain's departures do
// not acquire another domain's arrivals, and each completes at its own
// size.
func TestBarrierEpisodesPerDomain(t *testing.T) {
	s := New(4)
	cpu := func(i int) int { return s.CPU(i) }
	s.Access(cpu(0), 0, 0, true, 0, 0x8000, 8, 1, 0, "domain 0 write")
	t0 := s.BarrierArrive(cpu(0), 0, 2)
	t2 := s.BarrierArrive(cpu(2), 1, 2)
	t1 := s.BarrierArrive(cpu(1), 0, 2)
	t3 := s.BarrierArrive(cpu(3), 1, 2)
	for i, tok := range []any{t0, t1, t2, t3} {
		s.BarrierDone(cpu(i), tok)
	}
	s.Access(cpu(1), 0, 1, false, 0, 0x8000, 8, 1, 0, "same-domain read")
	if err := s.Err(); err != nil {
		t.Fatalf("same-domain barrier did not order: %v", err)
	}
	s.Access(cpu(3), 0, 3, false, 0, 0x8000, 8, 1, 0, "other-domain read")
	if s.Err() == nil {
		t.Fatal("another domain's barrier ordered the write")
	}
}
