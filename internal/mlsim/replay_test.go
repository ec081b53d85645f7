package mlsim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ap1000plus/internal/event"
	"ap1000plus/internal/fault"
	"ap1000plus/internal/params"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// barrierTrace is synchronization-bound: every round is an imbalanced
// compute closed by an all-cells barrier, and every fourth round adds
// a scalar gop over all cells and a barrier of the even PEs.
func barrierTrace(w, h, rounds int) *trace.TraceSet {
	ts := trace.New("barriers", w, h)
	var members []topology.CellID
	for pe := 0; pe < ts.Meta.PEs; pe += 2 {
		members = append(members, topology.CellID(pe))
	}
	evens := ts.AddGroup(members)
	for pe := range ts.PE {
		r := trace.NewRecorder()
		for i := 0; i < rounds; i++ {
			r.Compute(float64(1 + (pe*7+i*3)%13))
			r.Barrier(trace.AllGroup)
			if i%4 == 3 {
				r.GopScalar(trace.AllGroup, trace.ReduceSum)
				if pe%2 == 0 {
					r.Barrier(evens)
				}
			}
		}
		ts.PE[pe] = r.Events()
	}
	return ts
}

// torusNeighbours lists pe's east, west, south and north neighbours.
// Each direction is a permutation of the PEs, so every PE is the
// target of exactly four of them.
func torusNeighbours(pe, w, h int) [4]topology.CellID {
	x, y := pe%w, pe/w
	return [4]topology.CellID{
		topology.CellID(y*w + (x+1)%w),
		topology.CellID(y*w + (x+w-1)%w),
		topology.CellID((y+1)%h*w + x),
		topology.CellID((y+h-1)%h*w + x),
	}
}

// putFlagTrace is a PUT/flag halo exchange: every round each PE PUTs
// to its four torus neighbours, contiguous in even rounds and strided
// and acknowledged in odd ones, then waits for the cumulative count
// of incoming data and of acknowledgements.
func putFlagTrace(w, h, rounds int) *trace.TraceSet {
	ts := trace.New("putflag", w, h)
	for pe := range ts.PE {
		r := trace.NewRecorder()
		for i := 0; i < rounds; i++ {
			r.Compute(float64(5 + (pe+i)%7))
			for _, n := range torusNeighbours(pe, w, h) {
				if i%2 == 0 {
					r.Put(n, 512, 1, trace.NoFlag, 1, false, true)
				} else {
					r.Put(n, 2048, 64, trace.NoFlag, 1, true, true)
				}
			}
			r.FlagWait(1, int64(4*(i+1)))
			if i%2 == 1 {
				r.FlagWait(trace.AckFlag, int64(2*(i+1)))
			}
		}
		ts.PE[pe] = r.Events()
	}
	return ts
}

// sendRecvTrace is a SEND/RECEIVE shift: every round each PE SENDs to
// its east neighbour (even rounds) or south neighbour (odd rounds) and
// receives from the opposite one.
func sendRecvTrace(w, h, rounds int) *trace.TraceSet {
	ts := trace.New("sendrecv", w, h)
	for pe := range ts.PE {
		r := trace.NewRecorder()
		nb := torusNeighbours(pe, w, h)
		for i := 0; i < rounds; i++ {
			r.Compute(float64(3 + (pe*5+i)%11))
			to, from := nb[0], nb[1]
			if i%2 == 1 {
				to, from = nb[2], nb[3]
			}
			size := int64(256 << (i % 4))
			r.Send(to, size, false)
			r.Recv(from, size, false)
		}
		ts.PE[pe] = r.Events()
	}
	return ts
}

// goldenResult is what TestReplayGolden pins of one replay, in integer
// nanoseconds and counts: per PE [Exec, RTS, Overhead, Idle, End], the
// elapsed time and traffic, and under a fault plan the recovery
// counters [Retransmits, Dedups, CorruptDetected, CellFaults,
// ExtraNanos].
type goldenResult struct {
	Elapsed  event.Time
	Messages int64
	Bytes    int64
	PE       [][5]event.Time
	Fault    []int64 `json:",omitempty"`
}

func goldenOf(res *Result) goldenResult {
	g := goldenResult{Elapsed: res.Elapsed, Messages: res.Messages, Bytes: res.Bytes}
	for _, pe := range res.PE {
		g.PE = append(g.PE, [5]event.Time{pe.Exec, pe.RTS, pe.Overhead, pe.Idle, pe.End})
	}
	if f := res.Fault; f != nil {
		g.Fault = []int64{f.Retransmits, f.Dedups, f.CorruptDetected, f.CellFaults, f.ExtraNanos}
	}
	return g
}

// replayCase is one golden replay: a trace under a model, optionally
// with a fault plan.
type replayCase struct {
	name string
	ts   *trace.TraceSet
	p    *params.Params
	plan string
}

func (c replayCase) run(t *testing.T) goldenResult {
	t.Helper()
	var plan *fault.Plan
	if c.plan != "" {
		var err error
		if plan, err = fault.Parse(c.plan); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunFault(c.ts, c.p, plan)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return goldenOf(res)
}

// replayCases covers the three models over the random traces (4 and 8
// PEs) and the three benchmark shapes, plus the queue-occupancy and
// direct-acknowledge extensions and a fault plan on a few of them.
func replayCases() []replayCase {
	var traces []*trace.TraceSet
	for seed := int64(0); seed < 12; seed++ {
		for _, pes := range []int{4, 8} {
			ts := randomTrace(seed, pes)
			ts.Meta.App = fmt.Sprintf("random%d-%d", pes, seed)
			traces = append(traces, ts)
		}
	}
	traces = append(traces, barrierTrace(8, 8, 24), putFlagTrace(4, 4, 12), sendRecvTrace(4, 4, 12))
	var cases []replayCase
	for _, ts := range traces {
		for _, p := range []*params.Params{params.AP1000(), params.AP1000Plus(), params.AP1000x8()} {
			cases = append(cases, replayCase{name: ts.Meta.App + "/" + p.Name, ts: ts, p: p})
		}
	}
	queue := params.AP1000Plus()
	queue.Features.ModelQueueOverflow = true
	direct := params.AP1000Plus()
	direct.Features.DirectAck = true
	const plan = "seed=11,drop=0.05,dup=0.02,reorder=0.02,delay=0.05,corrupt=0.01"
	for _, ts := range traces[len(traces)-5:] {
		cases = append(cases,
			replayCase{name: ts.Meta.App + "/queue", ts: ts, p: queue},
			replayCase{name: ts.Meta.App + "/directack", ts: ts, p: direct},
			replayCase{name: ts.Meta.App + "/fault", ts: ts, p: params.AP1000(), plan: plan},
		)
	}
	return cases
}

// TestReplayGolden pins every simulated number of the replayCases
// against testdata/replay_golden.json, which was recorded by the
// scheduler that retried every blocked PE on every sweep: skipping a
// blocked PE until it is woken must change nothing.
func TestReplayGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "replay_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := replayCases()
	if len(want) != len(cases) {
		t.Errorf("golden has %d replays, the test runs %d", len(want), len(cases))
	}
	for _, c := range cases {
		got := c.run(t)
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no golden", c.name)
			continue
		}
		if got.Elapsed != w.Elapsed || got.Messages != w.Messages || got.Bytes != w.Bytes {
			t.Errorf("%s: elapsed/messages/bytes %v/%d/%d, golden %v/%d/%d",
				c.name, got.Elapsed, got.Messages, got.Bytes, w.Elapsed, w.Messages, w.Bytes)
		}
		if !slices.Equal(got.Fault, w.Fault) {
			t.Errorf("%s: fault counters %v, golden %v", c.name, got.Fault, w.Fault)
		}
		if len(got.PE) != len(w.PE) {
			t.Errorf("%s: %d PEs, golden %d", c.name, len(got.PE), len(w.PE))
			continue
		}
		for i := range got.PE {
			if got.PE[i] != w.PE[i] {
				t.Errorf("%s PE %d: [exec rts overhead idle end] %v, golden %v", c.name, i, got.PE[i], w.PE[i])
			}
		}
	}
}

// TestCollectivesLeaveNoState: an episode leaves the collective table
// when its last member departs, so 10 000 barriers on 64 PEs end with
// an empty table rather than one entry per episode.
func TestCollectivesLeaveNoState(t *testing.T) {
	s, err := New(barrierTrace(8, 8, 10000), params.AP1000Plus())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.colls) != 0 {
		t.Errorf("%d collective episodes left after the run, want 0", len(s.colls))
	}
}

// TestDeadlockMessages: a PE that never unblocks is reported with the
// same PE, event and text as when every blocked PE was retried on
// every sweep, including one that a flag increment woke without
// satisfying its wait.
func TestDeadlockMessages(t *testing.T) {
	cases := []struct {
		name    string
		program func(pe int, r *trace.Recorder)
		want    string
	}{
		{"flag woken short", func(pe int, r *trace.Recorder) {
			r.Compute(float64(10 * (pe + 1)))
			r.Barrier(trace.AllGroup)
			switch pe {
			case 0:
				r.Put(2, 64, 1, trace.NoFlag, 9, false, false)
			case 2:
				r.Put(3, 64, 1, trace.NoFlag, 4, false, false)
				r.FlagWait(9, 2)
			case 3:
				r.FlagWait(4, 1)
			}
		}, "mlsim: PE 2 deadlocked at event 3/4 (flagwait flag=9 target=2)"},
		{"recv without send", func(pe int, r *trace.Recorder) {
			switch pe {
			case 0:
				r.Send(1, 128, false)
			case 1:
				r.Recv(0, 128, false)
				r.Recv(0, 128, false)
			}
		}, "mlsim: PE 1 deadlocked at event 1/2 (recv peer=0 size=128)"},
		{"collective missing a member", func(pe int, r *trace.Recorder) {
			if pe == 3 {
				r.FlagWait(9, 1)
			}
			r.Barrier(trace.AllGroup)
		}, "mlsim: PE 0 deadlocked at event 0/1 (barrier group=0)"},
	}
	for _, c := range cases {
		_, err := Run(synthetic(c.name, c.program), params.AP1000Plus())
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// BenchmarkReplay prices a whole replay of the three benchmark shapes
// on 64 PEs under the AP1000 and AP1000+ models, in trace events per
// second.
func BenchmarkReplay(b *testing.B) {
	for _, ts := range []*trace.TraceSet{barrierTrace(8, 8, 500), putFlagTrace(8, 8, 200), sendRecvTrace(8, 8, 500)} {
		for _, p := range []*params.Params{params.AP1000(), params.AP1000Plus()} {
			b.Run(ts.Meta.App+"/"+p.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(ts, p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(ts.Events())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}
