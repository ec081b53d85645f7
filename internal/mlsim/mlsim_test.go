package mlsim

import (
	"bytes"
	"strings"
	"testing"

	"ap1000plus/internal/params"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// synthetic builds a 2x2 trace from per-PE recorder programs.
func synthetic(app string, program func(pe int, r *trace.Recorder)) *trace.TraceSet {
	ts := trace.New(app, 2, 2)
	for pe := 0; pe < 4; pe++ {
		r := trace.NewRecorder()
		program(pe, r)
		ts.PE[pe] = r.Events()
	}
	return ts
}

func mustRun(t *testing.T, ts *trace.TraceSet, p *params.Params) *Result {
	t.Helper()
	res, err := Run(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestComputeOnlyScalesWithFactor(t *testing.T) {
	ts := synthetic("compute", func(pe int, r *trace.Recorder) {
		r.Compute(1000)
	})
	base := mustRun(t, ts, params.AP1000())
	plus := mustRun(t, ts, params.AP1000Plus())
	if base.Elapsed.Us() != 1000 {
		t.Errorf("AP1000 elapsed = %v", base.Elapsed.Us())
	}
	if plus.Elapsed.Us() != 125 {
		t.Errorf("AP1000+ elapsed = %v", plus.Elapsed.Us())
	}
	if got := plus.SpeedupVs(base); got != 8.0 {
		t.Errorf("compute-only speedup = %v, want exactly 8 (the EP row)", got)
	}
}

func TestPutFlagWaitOrdering(t *testing.T) {
	// PE0 puts to PE1; PE1 waits on the flag. The wait must resolve
	// and PE1's idle must cover the transfer latency.
	ts := synthetic("put", func(pe int, r *trace.Recorder) {
		switch pe {
		case 0:
			r.Compute(50)
			r.Put(1, 1024, 1, 0, 7, false, false)
		case 1:
			r.FlagWait(7, 1)
		}
	})
	for _, p := range []*params.Params{params.AP1000(), params.AP1000Plus()} {
		res := mustRun(t, ts, p)
		pe1 := res.PE[1]
		if pe1.Idle == 0 {
			t.Errorf("%s: PE1 idle = 0, expected waiting", p.Name)
		}
		if res.Messages != 1 || res.Bytes != 1024 {
			t.Errorf("%s: traffic = %d msgs %d bytes", p.Name, res.Messages, res.Bytes)
		}
	}
	// The AP1000+ must deliver far sooner.
	base := mustRun(t, ts, params.AP1000())
	plus := mustRun(t, ts, params.AP1000Plus())
	if plus.PE[1].End >= base.PE[1].End {
		t.Errorf("AP1000+ delivery (%v) not faster than AP1000 (%v)", plus.PE[1].End, base.PE[1].End)
	}
}

func TestAckAndBarrierResolves(t *testing.T) {
	ts := synthetic("ack", func(pe int, r *trace.Recorder) {
		r.Put(topology.CellID((pe+1)%4), 100, 1, 0, 0, true, false)
		r.FlagWait(trace.AckFlag, 1)
		r.Barrier(trace.AllGroup)
	})
	res := mustRun(t, ts, params.AP1000Plus())
	// PUT + ack GET + ack reply per PE.
	if res.Messages != 4*3 {
		t.Errorf("messages = %d, want 12", res.Messages)
	}
	if res.Elapsed == 0 {
		t.Error("zero elapsed")
	}
}

func TestSendRecvBlocking(t *testing.T) {
	ts := synthetic("sr", func(pe int, r *trace.Recorder) {
		switch pe {
		case 0:
			r.Compute(100)
			r.Send(1, 4096, false)
		case 1:
			r.Recv(0, 4096, false)
			r.Compute(10)
		}
	})
	res := mustRun(t, ts, params.AP1000())
	if res.PE[1].Idle == 0 {
		t.Error("receiver should idle waiting for the send")
	}
	// The receiver finishes after the sender's compute phase.
	if res.PE[1].End <= us(100) {
		t.Errorf("PE1 end %v too early", res.PE[1].End)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	ts := synthetic("bar", func(pe int, r *trace.Recorder) {
		r.Compute(float64(100 * (pe + 1))) // imbalanced
		r.Barrier(trace.AllGroup)
		r.Compute(10)
	})
	res := mustRun(t, ts, params.AP1000Plus())
	// All PEs end together (same post-barrier work).
	ends := res.SortedEnds()
	if ends[0] != ends[3] {
		t.Errorf("ends diverge: %v", ends)
	}
	// The fastest PE idles roughly the imbalance: (400-100)us of
	// trace compute scaled by the 0.125 computation factor = 37.5us.
	if res.PE[0].Idle < us(37) {
		t.Errorf("PE0 idle = %v, want >= 37.5us (waiting for PE3)", res.PE[0].Idle)
	}
	if res.PE[3].Idle > us(50) {
		t.Errorf("PE3 idle = %v, want small (it is the last arrival)", res.PE[3].Idle)
	}
}

func TestGroupBarrierOnlyMembers(t *testing.T) {
	ts := trace.New("group", 2, 2)
	ts.AddGroup([]topology.CellID{0, 1})
	for pe := 0; pe < 4; pe++ {
		r := trace.NewRecorder()
		if pe < 2 {
			r.Barrier(1)
		}
		r.Compute(5)
		ts.PE[pe] = r.Events()
	}
	res := mustRun(t, ts, params.AP1000Plus())
	if res.PEs != 4 {
		t.Fatal("wrong PE count")
	}
}

func TestGopScalarAndVector(t *testing.T) {
	ts := synthetic("gop", func(pe int, r *trace.Recorder) {
		r.Compute(50)
		r.GopScalar(trace.AllGroup, trace.ReduceSum)
		r.GopVector(trace.AllGroup, trace.ReduceSum, 11200)
	})
	base := mustRun(t, ts, params.AP1000())
	plus := mustRun(t, ts, params.AP1000Plus())
	if plus.Elapsed >= base.Elapsed {
		t.Errorf("AP1000+ gops (%v) not faster than AP1000 (%v)", plus.Elapsed, base.Elapsed)
	}
	// The vector reduction is expensive on both (ring pass of 11200B).
	if plus.PE[0].Idle == 0 {
		t.Error("vector gop should introduce idle time")
	}
}

func TestDeadlockDetected(t *testing.T) {
	ts := synthetic("dead", func(pe int, r *trace.Recorder) {
		if pe == 0 {
			r.FlagWait(9, 1) // nobody increments flag 9
		}
	})
	if _, err := Run(ts, params.AP1000Plus()); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestStridePackingOnSoftwareModel(t *testing.T) {
	// One stride PUT of 256 items: the AP1000 (no stride hardware)
	// packs in software (per-byte cost) but still sends one message;
	// the AP1000+ stride DMA pays nothing extra.
	stride := synthetic("stride", func(pe int, r *trace.Recorder) {
		if pe == 0 {
			r.Put(1, 2048, 256, 0, 0, false, false)
		}
	})
	plain := synthetic("plain", func(pe int, r *trace.Recorder) {
		if pe == 0 {
			r.Put(1, 2048, 1, 0, 0, false, false)
		}
	})
	base := mustRun(t, stride, params.AP1000())
	basePlain := mustRun(t, plain, params.AP1000())
	plus := mustRun(t, stride, params.AP1000Plus())
	plusPlain := mustRun(t, plain, params.AP1000Plus())
	if base.Messages != 1 || plus.Messages != 1 {
		t.Errorf("messages = %d / %d, want 1 each", base.Messages, plus.Messages)
	}
	wantPack := us(params.AP1000().StridePackTime * 2048)
	if got := base.PE[0].Overhead - basePlain.PE[0].Overhead; got != wantPack {
		t.Errorf("software pack cost = %v, want %v", got, wantPack)
	}
	if plus.PE[0].Overhead != plusPlain.PE[0].Overhead {
		t.Errorf("hardware stride must cost the same as a plain put: %v vs %v",
			plus.PE[0].Overhead, plusPlain.PE[0].Overhead)
	}
}

func TestRTSAttribution(t *testing.T) {
	ts := synthetic("rts", func(pe int, r *trace.Recorder) {
		if pe == 0 {
			r.Put(1, 64, 1, 0, 0, false, true)  // RTS-issued
			r.Put(1, 64, 1, 0, 0, false, false) // user-issued
		}
	})
	res := mustRun(t, ts, params.AP1000Plus())
	if res.PE[0].RTS == 0 {
		t.Error("RTS time not charged")
	}
	if res.PE[0].RTS != us(params.AP1000Plus().RtsOpTime) {
		t.Errorf("RTS = %v, want exactly one rts_op_time", res.PE[0].RTS)
	}
}

func TestInterruptsStealReceiverCPU(t *testing.T) {
	// On the AP1000, receiving 100 puts costs the receiver CPU time
	// even though it never waits on them; on the AP1000+ it costs
	// nothing.
	ts := synthetic("intr", func(pe int, r *trace.Recorder) {
		switch pe {
		case 0:
			for i := 0; i < 100; i++ {
				r.Put(1, 1024, 1, 0, 0, false, false)
			}
		case 1:
			r.Compute(10)
			r.Barrier(trace.AllGroup)
		}
		if pe != 1 {
			r.Barrier(trace.AllGroup)
		}
	})
	base := mustRun(t, ts, params.AP1000())
	plus := mustRun(t, ts, params.AP1000Plus())
	if base.PE[1].Overhead == 0 {
		t.Error("AP1000 receiver must pay interrupt overhead")
	}
	if plus.PE[1].Overhead > us(5) {
		t.Errorf("AP1000+ receiver overhead = %v, want ~0 (hardware handling)", plus.PE[1].Overhead)
	}
}

func TestFigure7Timeline(t *testing.T) {
	for _, p := range []*params.Params{params.AP1000(), params.AP1000Plus()} {
		comps := PutTimeline(p, 1024, 3)
		if len(comps) != 18 {
			t.Fatalf("%s: %d components, want 18", p.Name, len(comps))
		}
		seen := map[int]bool{}
		for _, c := range comps {
			if c.End < c.Start {
				t.Errorf("%s item %d: end %v < start %v", p.Name, c.Index, c.End, c.Start)
			}
			seen[c.Index] = true
		}
		for i := 1; i <= 18; i++ {
			if !seen[i] {
				t.Errorf("%s: missing Figure 7 item %d", p.Name, i)
			}
		}
	}
	// The AP1000+ latency and CPU must both be far below the AP1000's.
	lat0, cpu0 := PutLatency(params.AP1000(), 1024, 3)
	lat1, cpu1 := PutLatency(params.AP1000Plus(), 1024, 3)
	if lat1 >= lat0 || cpu1 >= cpu0 {
		t.Errorf("AP1000+ put (lat %v cpu %v) not better than AP1000 (lat %v cpu %v)", lat1, cpu1, lat0, cpu0)
	}
	// S4.1: AP1000+ issue cost is ~the 8 stores plus library entry.
	wantCPU := us(params.AP1000Plus().PutPrologTime + params.AP1000Plus().PutEnqueueTime)
	if cpu1 != wantCPU {
		t.Errorf("AP1000+ sender CPU = %v, want %v", cpu1, wantCPU)
	}
}

func TestWriteTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, params.AP1000Plus(), 256, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "put_dma_set_time") || !strings.Contains(out, "latency") {
		t.Errorf("timeline output missing pieces:\n%s", out)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	ts := synthetic("sum", func(pe int, r *trace.Recorder) {
		r.Compute(100)
		r.Barrier(trace.AllGroup)
		r.GopScalar(trace.AllGroup, trace.ReduceSum)
	})
	res := mustRun(t, ts, params.AP1000x8())
	b := res.Breakdown()
	if b.Total <= 0 {
		t.Fatal("empty breakdown")
	}
	sum := b.Exec + b.RTS + b.Overhead + b.Idle
	if sum != b.Total {
		t.Errorf("breakdown sum %v != total %v", sum, b.Total)
	}
	for _, pe := range res.PE {
		if pe.Total() != pe.End {
			t.Errorf("PE accounting: total %v != end %v", pe.Total(), pe.End)
		}
	}
}

func TestHopTableMatchesTorus(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {4, 1}, {3, 5}, {8, 8}, {16, 4}} {
		torus, err := topology.NewTorus(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		ht := newHopTable(torus)
		for a := 0; a < torus.Cells(); a++ {
			for b := 0; b < torus.Cells(); b++ {
				if got, want := ht.distance(a, b), torus.Distance(topology.CellID(a), topology.CellID(b)); got != want {
					t.Fatalf("%dx%d: distance(%d, %d) = %d, torus says %d", dims[0], dims[1], a, b, got, want)
				}
			}
		}
	}
}

func TestLoadImbalance(t *testing.T) {
	balanced := synthetic("bal", func(pe int, r *trace.Recorder) {
		r.Compute(100)
	})
	res := mustRun(t, balanced, params.AP1000Plus())
	if got := res.LoadImbalance(); got != 1.0 {
		t.Errorf("balanced imbalance = %v", got)
	}
	skewed := synthetic("skew", func(pe int, r *trace.Recorder) {
		r.Compute(float64(100 * (pe + 1)))
	})
	res = mustRun(t, skewed, params.AP1000Plus())
	// ends: 100,200,300,400 (x0.125) -> max/mean = 400/250 = 1.6
	if got := res.LoadImbalance(); got < 1.59 || got > 1.61 {
		t.Errorf("skewed imbalance = %v, want 1.6", got)
	}
}
