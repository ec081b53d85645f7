package pgas

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ap1000plus/internal/machine"
)

// aggWorkload drives a mixed put/add/min/max/get/fetchadd stream with
// a per-cell deterministic LCG. Puts use exclusive per-index writers
// so the final image is mode-independent.
func aggWorkload(t *testing.T, r *rig, s *Shared, gets *Shared, iters int) ([][]int64, [][]int64) {
	t.Helper()
	np := int64(r.h.NP())
	n := s.Len()
	got := make([][]int64, np)     // per-cell Get results
	fetched := make([][]int64, np) // per-cell FetchAdd previous values
	r.run(t, func(pe *PE) error {
		me := int64(pe.Rank())
		a := r.aggs[pe.Rank()]
		rng := uint64(me*2654435761 + 12345)
		next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 11 }
		dst := make([]int64, iters)
		for k := 0; k < iters; k++ {
			i := int64(next() % uint64(n))
			switch next() % 4 {
			case 0:
				// Exclusive writer per index: value depends only on i.
				if (i*7+3)%np == me {
					if err := a.Put(s, i, i*3+1); err != nil {
						return err
					}
				}
			case 1:
				if err := a.Add(s, i, int64(next()%100)); err != nil {
					return err
				}
			case 2:
				if err := a.Min(s, i, int64(next()%1000)-500); err != nil {
					return err
				}
			default:
				if err := a.Get(gets, i%gets.Len(), &dst[k]); err != nil {
					return err
				}
			}
		}
		// A chained fetch: the completion pushes a second-hop add, the
		// conveyor pattern.
		var olds []int64
		err := a.FetchAdd(s, me%n, 1, func(old int64) {
			olds = append(olds, old)
			_ = a.Add(s, (me+1)%n, 1)
		})
		if err != nil {
			return err
		}
		if err := a.Flush(); err != nil {
			return err
		}
		pe.Barrier()
		got[me], fetched[me] = dst, olds
		return nil
	})
	return got, fetched
}

// TestAggFlushQuiesces pins the drain invariant: after Flush no AggPE
// holds queued packets, outstanding fetches or leaked response tags,
// and the mailbox flag count is exactly rounds*(P-1) on every cell —
// no stray or missing region arrivals.
func TestAggFlushQuiesces(t *testing.T) {
	r := newRig(t, machine.Config{Sanitize: true}, true, 8)
	s, err := r.h.Alloc("data", 101)
	if err != nil {
		t.Fatal(err)
	}
	gets, err := r.h.Alloc("static", 37)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < gets.Len(); i++ {
		gets.SetWord(i, i*11)
	}
	aggWorkload(t, r, s, gets, 300)
	ag := r.aggs[0].ag
	if err := ag.Quiesced(); err != nil {
		t.Error(err)
	}
	rounds := r.aggs[0].Rounds()
	if rounds == 0 {
		t.Fatal("no exchange rounds ran")
	}
	for id, a := range r.aggs {
		if a.Rounds() != rounds {
			t.Errorf("cell %d ran %d rounds, cell 0 ran %d", id, a.Rounds(), rounds)
		}
		flags := r.m.Cell(r.pes[id].cell.ID()).Flags
		if got, want := flags.Load(ag.mbFlag), rounds*int64(r.h.NP()-1); got != want {
			t.Errorf("cell %d: mailbox flag = %d, want %d", id, got, want)
		}
	}
}

// TestAggMatchesNaiveSmall is the white-box conformance check: the
// same mixed workload applied through the aggregator and through the
// naive PE operations must leave bit-identical memory. (The root
// pgas_property_test.go drives the full matrix; this one pins the
// packet encode/decode path in isolation.)
func TestAggMatchesNaiveSmall(t *testing.T) {
	run := func(agg bool) []int64 {
		r := newRig(t, machine.Config{}, true, 16)
		s, err := r.h.Alloc("m", 64)
		if err != nil {
			t.Fatal(err)
		}
		np := int64(r.h.NP())
		r.run(t, func(pe *PE) error {
			me := int64(pe.Rank())
			a := r.aggs[pe.Rank()]
			// Index classes keep op kinds disjoint: puts and adds on
			// one index would not commute, so no phase-free workload
			// can mix them and stay order-independent.
			for i := int64(0); i < s.Len(); i++ {
				switch i % 3 {
				case 0: // exclusive-writer put
					if (i*5+1)%np != me {
						continue
					}
					if agg {
						if err := a.Put(s, i, i+100); err != nil {
							return err
						}
					} else if err := pe.PutInt64(s, i, i+100); err != nil {
						return err
					}
				case 1: // commutative adds from every cell
					if agg {
						if err := a.Add(s, i, me+1); err != nil {
							return err
						}
					} else if err := pe.AtomicAdd(s, i, me+1); err != nil {
						return err
					}
				default: // commutative max from every cell
					if agg {
						if err := a.Max(s, i, 90+me); err != nil {
							return err
						}
					} else if err := pe.AtomicMax(s, i, 90+me); err != nil {
						return err
					}
				}
			}
			if agg {
				if err := a.Flush(); err != nil {
					return err
				}
			}
			pe.Barrier()
			return nil
		})
		return s.Words()
	}
	// Note: adds and max commute, and each put index has one writer,
	// so the two modes must agree exactly even though operation order
	// differs.
	a, n := run(true), run(false)
	for i := range a {
		if a[i] != n[i] {
			t.Errorf("m[%d]: aggregated %d != naive %d", i, a[i], n[i])
		}
	}
}

// TestPGASAggregatedZeroAlloc guards the aggregated push fast path
// on a cold instance, as every bale_agg run starts: on a freshly
// bound AggPE a push encodes its packet in the outgoing region, so up
// to one region's capacity of Put/Add per destination allocates
// nothing from the first push. Get and FetchAdd allocate nothing
// while their completions fit in one tag chunk. Wired into make
// verify.
func TestPGASAggregatedZeroAlloc(t *testing.T) {
	r := newRig(t, machine.Config{}, true, 0)
	np := int64(r.h.NP())
	s, err := r.h.Alloc("z", np*64)
	if err != nil {
		t.Fatal(err)
	}
	a := r.aggs[0]
	// Index k is owned by cell k%np, so each destination gets
	// DefaultAggPackets/2 Puts and as many Adds: one full region.
	ops := np * DefaultAggPackets / 2
	if allocs := allocsOnce(func() {
		for k := int64(0); k < ops; k++ {
			if err := a.Put(s, k%s.Len(), k); err != nil {
				t.Fatal(err)
			}
			if err := a.Add(s, k%s.Len(), 1); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("cold aggregated Put/Add allocates %d times per %d ops, want 0", allocs, 2*ops)
	}
	for d := range a.fill {
		if a.fill[d] != DefaultAggPackets {
			t.Errorf("region %d holds %d packets, want a full region of %d", d, a.fill[d], DefaultAggPackets)
		}
		a.fill[d] = 0
	}
	a.queued = 0

	// The first split-phase push allocates the first tag chunk; the
	// rest of the chunk's tags come from it.
	dst := make([]int64, tagChunk)
	if err := a.Get(s, 0, &dst[0]); err != nil {
		t.Fatal(err)
	}
	if allocs := allocsOnce(func() {
		for k := int64(1); k < tagChunk; k++ {
			var err error
			if k%2 == 0 {
				err = a.Get(s, k%s.Len(), &dst[k])
			} else {
				err = a.FetchAdd(s, k%s.Len(), 1, discardOld)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("aggregated Get/FetchAdd allocates %d times per %d ops within one tag chunk, want 0", allocs, tagChunk-1)
	}
	if len(a.tab) != 1 || a.outstanding != tagChunk {
		t.Errorf("%d tag chunks, %d outstanding; want 1 chunk, %d outstanding", len(a.tab), a.outstanding, tagChunk)
	}
}

func discardOld(int64) {}

// allocsOnce counts the heap allocations of one call of f, which
// testing.AllocsPerRun cannot: it runs f once uncounted to warm up.
func allocsOnce(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// orderCase is one run of the overflow-order gate: a torus shape and
// a region capacity small enough that nearly every destination
// overflows its region in most rounds.
type orderCase struct {
	w, h, packets int
}

func (c orderCase) name() string { return fmt.Sprintf("%dx%d/packets=%d", c.w, c.h, c.packets) }

// orderTrace is what the overflow-order gate pins of one aggregated
// run: the round count, each cell's per-round packets shipped to
// peers, packets applied and Pending() after the round, and each
// cell's FetchAdd previous values in completion order. All of it
// follows from program order, FIFO region packing and source-order
// apply, so none of it depends on wire timing.
type orderTrace struct {
	Rounds  int64     `json:"rounds"`
	Sent    [][]int64 `json:"sent"`
	Applied [][]int64 `json:"applied"`
	Pending [][]int64 `json:"pending"`
	Fetched [][]int64 `json:"fetched"`
}

// orderWorkload runs a Put/Add/Min/Get/FetchAdd mix on r, through the
// aggregator when r has one and through the naive PE operations
// otherwise. Index classes keep op kinds order-independent: i%3 == 0
// takes puts from one writer, i%3 == 1 adds and fetch-adds, i%3 == 2
// mins. FetchAdd completions push further operations, some of them
// fetch-adds whose completions push again. It returns the final
// image of the array and, in aggregated mode, the round trace.
func orderWorkload(t *testing.T, r *rig, ops int) ([]int64, orderTrace) {
	t.Helper()
	np := r.h.NP()
	s, err := r.h.Alloc("order", int64(3*np*5))
	if err != nil {
		t.Fatal(err)
	}
	static, err := r.h.Alloc("orderstatic", int64(7*np+1))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < static.Len(); i++ {
		static.SetWord(i, i*13-5)
	}
	third := s.Len() / 3
	tr := orderTrace{
		Sent: make([][]int64, np), Applied: make([][]int64, np),
		Pending: make([][]int64, np), Fetched: make([][]int64, np),
	}
	r.run(t, func(pe *PE) error {
		me := int64(pe.Rank())
		var a *AggPE
		if r.aggs != nil {
			a = r.aggs[me]
		}
		rng := uint64(me)*0x9E3779B97F4A7C15 + 77
		next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 11 }
		var fetched []int64
		add := func(i, d int64) error {
			if a != nil {
				return a.Add(s, i, d)
			}
			return pe.AtomicAdd(s, i, d)
		}
		// fetchAdd completes through then: at once in naive mode, in
		// a later round when aggregated.
		fetchAdd := func(i, d int64, then func(old int64)) error {
			if a != nil {
				return a.FetchAdd(s, i, d, then)
			}
			old, err := pe.FetchAdd(s, i, d)
			if err == nil {
				then(old)
			}
			return err
		}
		var firstErr error
		chain := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		gets := make([]int64, ops)
		getIdx := make([]int64, ops)
		for k := 0; k < ops; k++ {
			getIdx[k] = -1
			j := int64(next() % uint64(third))
			var err error
			switch next() % 5 {
			case 0:
				if j%int64(np) != me {
					continue
				}
				if a != nil {
					err = a.Put(s, 3*j, j*3+1)
				} else {
					err = pe.PutInt64(s, 3*j, j*3+1)
				}
			case 1:
				err = add(3*j+1, int64(next()%50))
			case 2:
				v := int64(next()%1000) - 500
				if a != nil {
					err = a.Min(s, 3*j+2, v)
				} else {
					err = pe.AtomicMin(s, 3*j+2, v)
				}
			case 3:
				gi := int64(next() % uint64(static.Len()))
				getIdx[k] = gi
				if a != nil {
					err = a.Get(static, gi, &gets[k])
				} else {
					gets[k], err = pe.GetInt64(static, gi)
				}
			default:
				hop := 3*((j+me+1)%third) + 1
				nested := k%3 == 0
				err = fetchAdd(3*j+1, 1, func(old int64) {
					fetched = append(fetched, old)
					if !nested {
						chain(add(hop, 1))
						return
					}
					chain(fetchAdd(hop, 2, func(old int64) {
						fetched = append(fetched, old)
						chain(add(3*((j+2)%third)+1, 3))
					}))
				})
			}
			if err != nil {
				return err
			}
		}
		if a != nil {
			c := r.m.Observer().Cell(int(me))
			sent0, applied0 := c.AggPacketsSent.Load(), c.AggApplied.Load()
			for {
				if err := a.Advance(); err != nil {
					return err
				}
				sent, applied := c.AggPacketsSent.Load(), c.AggApplied.Load()
				tr.Sent[me] = append(tr.Sent[me], sent-sent0)
				tr.Applied[me] = append(tr.Applied[me], applied-applied0)
				tr.Pending[me] = append(tr.Pending[me], a.Pending())
				sent0, applied0 = sent, applied
				if pe.ReduceAdd(float64(a.Pending())) == 0 {
					break
				}
			}
			if err := a.Quiesced(); err != nil {
				return err
			}
			tr.Fetched[me] = fetched
		}
		pe.Barrier()
		for k, gi := range getIdx {
			if gi >= 0 && gets[k] != gi*13-5 {
				return fmt.Errorf("cell %d: get %d of static[%d] = %d, want %d", me, k, gi, gets[k], gi*13-5)
			}
		}
		return firstErr
	})
	if r.aggs != nil {
		tr.Rounds = r.aggs[0].Rounds()
	}
	return s.Words(), tr
}

// orderCases are the overflow-order gate's runs: region capacities 2
// and 3 on a 2x2 and a 4x4 machine.
var orderCases = []orderCase{{2, 2, 2}, {2, 2, 3}, {4, 4, 2}, {4, 4, 3}}

// orderOps is each cell's operation count per machine size: enough
// that every destination overflows a region of 2 or 3 packets.
func orderOps(c orderCase) int { return 16 * c.w * c.h }

// TestAggOverflowOrder is the overflow-order gate. With regions of 2
// or 3 packets almost every destination spills past its region every
// round, so the rounds exercise the overflow path and its FIFO
// refill. Aggregated memory must equal naive memory, and the round
// count, each round's per-cell packet counts and each cell's FetchAdd
// completion order must equal testdata/agg_order_golden.json, which
// was recorded before regions became the queues. make verify runs it
// under -race at GOMAXPROCS 1 and 4.
func TestAggOverflowOrder(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "agg_order_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]orderTrace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(orderCases) {
		t.Errorf("golden has %d runs, the test runs %d", len(want), len(orderCases))
	}
	for _, c := range orderCases {
		t.Run(c.name(), func(t *testing.T) {
			cfg := machine.Config{Width: c.w, Height: c.h, Observe: true}
			agg, tr := orderWorkload(t, newRig(t, cfg, true, c.packets), orderOps(c))
			naive, _ := orderWorkload(t, newRig(t, cfg, false, 0), orderOps(c))
			for i := range agg {
				if agg[i] != naive[i] {
					t.Errorf("order[%d]: aggregated %d != naive %d", i, agg[i], naive[i])
				}
			}
			w, ok := want[c.name()]
			if !ok {
				t.Fatalf("no golden for %s", c.name())
			}
			if !reflect.DeepEqual(tr, w) {
				t.Errorf("round trace differs from the golden:\n got %+v\nwant %+v", tr, w)
			}
		})
	}
}
