package mlsim

import (
	"math/rand"
	"testing"

	"ap1000plus/internal/params"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// Flags of randomTrace: PUT data lands on recvFlag, a GET's reply on
// getFlag; sendFlag counts a PUT's source buffer freed, and a GET's
// send flag bumps holdFlag at the data holder, which nobody waits on.
const (
	recvFlag trace.FlagID = 5
	getFlag  trace.FlagID = 6
	sendFlag trace.FlagID = 7
	holdFlag trace.FlagID = 8
)

// randomTrace builds a structurally valid random trace that cannot
// deadlock. Each of one or two rounds issues computes, plain, acked
// and strided PUTs, GETs with send flags and SENDs, none of which
// block; then every PE receives what was sent to it, waits on every
// flag count the round raised, and runs the round's collectives. The
// collectives (barriers, scalar and vector gops over all cells, the
// even PEs and a random subset) follow one schedule that each PE
// filters to the groups it belongs to, so no two members ever wait on
// each other in opposite orders.
func randomTrace(seed int64, pes int) *trace.TraceSet {
	rng := rand.New(rand.NewSource(seed))
	ts := trace.New("random", 2, pes/2)
	var evens []topology.CellID
	for pe := 0; pe < pes; pe += 2 {
		evens = append(evens, topology.CellID(pe))
	}
	var subset []topology.CellID
	for _, pe := range rng.Perm(pes)[:1+rng.Intn(pes)] {
		subset = append(subset, topology.CellID(pe))
	}
	groups := [][]topology.CellID{ts.Group(trace.AllGroup), evens, subset}
	ts.AddGroup(evens)
	ts.AddGroup(subset)

	recorders := make([]*trace.Recorder, pes)
	for pe := range recorders {
		recorders[pe] = trace.NewRecorder()
	}
	// Cumulative flag targets per PE, and SEND sizes per (src, dst).
	recvs, gets, sends, acks := make([]int64, pes), make([]int64, pes), make([]int64, pes), make([]int64, pes)
	sent := make([][][]int64, pes)
	for src := range sent {
		sent[src] = make([][]int64, pes)
	}
	for round := 1 + rng.Intn(2); round > 0; round-- {
		for pe, r := range recorders {
			for i := rng.Intn(20); i > 0; i-- {
				dst := rng.Intn(pes)
				switch rng.Intn(6) {
				case 0:
					r.Compute(rng.Float64() * 100)
				case 1:
					ack := rng.Intn(2) == 0
					r.Put(topology.CellID(dst), int64(1+rng.Intn(4096)), 1, sendFlag, recvFlag, ack, false)
					recvs[dst]++
					sends[pe]++
					if ack {
						acks[pe]++
					}
				case 2:
					r.Put(topology.CellID(dst), int64(8+rng.Intn(1024)), int64(2+rng.Intn(64)), trace.NoFlag, recvFlag, false, true)
					recvs[dst]++
				case 3:
					r.Get(topology.CellID(dst), int64(1+rng.Intn(2048)), int64(1+rng.Intn(2)*rng.Intn(32)), holdFlag, getFlag, rng.Intn(2) == 0)
					gets[pe]++
				case 4:
					size := int64(rng.Intn(8192))
					r.Send(topology.CellID(dst), size, rng.Intn(2) == 0)
					sent[pe][dst] = append(sent[pe][dst], size)
				case 5:
					r.Get(topology.CellID(dst), int64(rng.Intn(64)), 1, trace.NoFlag, trace.NoFlag, false)
				}
			}
		}
		for pe, r := range recorders {
			for src := range sent {
				for _, size := range sent[src][pe] {
					r.Recv(topology.CellID(src), size, false)
				}
				sent[src][pe] = nil
			}
			for _, w := range []struct {
				flag  trace.FlagID
				count int64
			}{{recvFlag, recvs[pe]}, {getFlag, gets[pe]}, {sendFlag, sends[pe]}, {trace.AckFlag, acks[pe]}} {
				if w.count > 0 {
					r.FlagWait(w.flag, w.count)
				}
			}
		}
		for c := rng.Intn(6); c > 0; c-- {
			g := rng.Intn(len(groups))
			kind, size := rng.Intn(3), int64(8*rng.Intn(2048))
			for _, m := range groups[g] {
				r := recorders[m]
				switch kind {
				case 0:
					r.Barrier(trace.GroupID(g))
				case 1:
					r.GopScalar(trace.GroupID(g), trace.ReduceSum)
				case 2:
					r.GopVector(trace.GroupID(g), trace.ReduceMax, size)
				}
			}
		}
	}
	for pe, r := range recorders {
		ts.PE[pe] = r.Events()
	}
	return ts
}

// TestDeterminism: replaying the same trace twice yields bit-identical
// results.
func TestDeterminism(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ts := randomTrace(seed, 4)
		a, err := Run(ts, params.AP1000Plus())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(ts, params.AP1000Plus())
		if err != nil {
			t.Fatal(err)
		}
		if a.Elapsed != b.Elapsed || a.Messages != b.Messages || a.Bytes != b.Bytes {
			t.Fatalf("seed %d: nondeterministic: %+v vs %+v", seed, a, b)
		}
		for i := range a.PE {
			if a.PE[i] != b.PE[i] {
				t.Fatalf("seed %d PE %d: %+v vs %+v", seed, i, a.PE[i], b.PE[i])
			}
		}
	}
}

// TestAccountingInvariants: for every random trace and model,
// components are non-negative, sum to the end time, and the elapsed
// time is the max end.
func TestAccountingInvariants(t *testing.T) {
	models := []*params.Params{params.AP1000(), params.AP1000Plus(), params.AP1000x8()}
	for seed := int64(0); seed < 15; seed++ {
		ts := randomTrace(seed, 4)
		for _, p := range models {
			res, err := Run(ts, p)
			if err != nil {
				t.Fatalf("seed %d model %s: %v", seed, p.Name, err)
			}
			var maxEnd int64
			for i, pe := range res.PE {
				if pe.Exec < 0 || pe.RTS < 0 || pe.Overhead < 0 || pe.Idle < 0 {
					t.Fatalf("seed %d %s PE %d: negative component %+v", seed, p.Name, i, pe)
				}
				if pe.Total() != pe.End {
					t.Fatalf("seed %d %s PE %d: total %v != end %v", seed, p.Name, i, pe.Total(), pe.End)
				}
				if int64(pe.End) > maxEnd {
					maxEnd = int64(pe.End)
				}
			}
			if int64(res.Elapsed) != maxEnd {
				t.Fatalf("seed %d %s: elapsed %v != max end %v", seed, p.Name, res.Elapsed, maxEnd)
			}
		}
	}
}

// TestSlowerModelNeverFaster: the AP1000 replay of any trace is never
// faster than the AP1000+ replay (all its parameters dominate).
func TestSlowerModelNeverFaster(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		ts := randomTrace(seed, 4)
		base, err := Run(ts, params.AP1000())
		if err != nil {
			t.Fatal(err)
		}
		plus, err := Run(ts, params.AP1000Plus())
		if err != nil {
			t.Fatal(err)
		}
		if plus.Elapsed > base.Elapsed {
			t.Fatalf("seed %d: AP1000+ (%v) slower than AP1000 (%v)", seed, plus.Elapsed, base.Elapsed)
		}
	}
}

// TestComputeLowerBound: elapsed time is at least the scaled compute
// of the busiest PE.
func TestComputeLowerBound(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		ts := randomTrace(seed, 4)
		for _, p := range []*params.Params{params.AP1000(), params.AP1000Plus()} {
			res, err := Run(ts, p)
			if err != nil {
				t.Fatal(err)
			}
			for pe, evs := range ts.PE {
				var compute float64
				for _, e := range evs {
					if e.Kind == trace.KindCompute {
						compute += e.Dur
					}
				}
				want := us(compute * p.ComputationFactor)
				if res.PE[pe].End < want {
					t.Fatalf("seed %d %s PE %d: end %v below compute bound %v", seed, p.Name, pe, res.PE[pe].End, want)
				}
			}
		}
	}
}

// TestMessageAccounting: every put is one message (plus two for an
// ack), every get two.
func TestMessageAccounting(t *testing.T) {
	ts := synthetic("acct", func(pe int, r *trace.Recorder) {
		if pe != 0 {
			return
		}
		r.Put(1, 100, 1, 0, 0, false, false) // 1
		r.Put(2, 100, 1, 0, 0, true, false)  // 1 + 2 (ack get + reply)
		r.Get(3, 100, 1, 0, 0, false)        // 2
	})
	res := mustRun(t, ts, params.AP1000Plus())
	if res.Messages != 6 {
		t.Fatalf("messages = %d, want 6", res.Messages)
	}
	if res.Bytes != 300 {
		t.Fatalf("bytes = %d, want 300 (acks and requests are empty)", res.Bytes)
	}
}

// TestDirectAckFeature: direct acknowledging halves the ack traffic
// and arrives no later.
func TestDirectAckFeature(t *testing.T) {
	ts := synthetic("dack", func(pe int, r *trace.Recorder) {
		if pe == 0 {
			for i := 0; i < 10; i++ {
				r.Put(1, 512, 1, 0, 0, true, false)
			}
			r.FlagWait(trace.AckFlag, 10)
		}
	})
	getAck := mustRun(t, ts, params.AP1000Plus())
	dp := params.AP1000Plus()
	dp.Features.DirectAck = true
	direct := mustRun(t, ts, dp)
	if direct.Messages >= getAck.Messages {
		t.Errorf("direct ack should reduce messages: %d vs %d", direct.Messages, getAck.Messages)
	}
	if direct.PE[0].End > getAck.PE[0].End {
		t.Errorf("direct ack should not be slower: %v vs %v", direct.PE[0].End, getAck.PE[0].End)
	}
}
