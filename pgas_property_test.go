// Property suite for the PGAS layer: a randomized irregular workload
// — puts, commutative atomics, gathers and fetch-and-adds over shared
// arrays — must produce bit-identical results whether it is issued
// naively (one MSC+ command per operation) or through the exstack
// aggregator, on a plain machine, under the apsan race detector,
// over a lossy wire with reliable delivery, and with T-net atomic
// combining on. Fetch-and-add previous values must form the exact set
// {0..total-1} per counter in every configuration.
package ap1000plus

import (
	"fmt"
	"sort"
	"testing"
)

// pgasPropCfg is one machine configuration of the property matrix.
type pgasPropCfg struct {
	name       string
	aggregated bool
	sanitize   bool
	combining  bool
	fault      string // fault plan spec, "" = reliable wire
}

// pgasPropOp is one pre-generated operation of the random workload.
// Streams are generated host-side from the seed so every machine
// configuration replays exactly the same program.
type pgasPropOp struct {
	kind byte // 'p' put, 'a' add, 'x' max, 'n' min, 'g' get, 'f' fetch-add
	i    int64
	v    int64
}

// pgasPropStreams builds each rank's operation stream. Op classes are
// disjoint per region — puts have an exclusive writer per index and
// everything else commutes — so reordering between the naive and
// aggregated issue paths cannot change the final image.
func pgasPropStreams(seed uint64, np int, n, ctrs int64, ops int) [][]pgasPropOp {
	streams := make([][]pgasPropOp, np)
	for rank := 0; rank < np; rank++ {
		state := seed + uint64(rank)*0x9E3779B97F4A7C15
		next := func() uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return state >> 11
		}
		for k := 0; k < ops; k++ {
			i := int64(next() % uint64(n))
			v := int64(next()%1000) - 500
			var op pgasPropOp
			switch next() % 6 {
			case 0: // exclusive-writer put: deterministic final value
				if int(i*7+3)%np != rank {
					continue
				}
				op = pgasPropOp{'p', i, i*11 + int64(rank)}
			case 1:
				op = pgasPropOp{'a', i, v}
			case 2:
				op = pgasPropOp{'x', i, v}
			case 3:
				op = pgasPropOp{'n', i, v}
			case 4:
				op = pgasPropOp{'g', i, 0}
			default:
				op = pgasPropOp{'f', int64(next() % uint64(ctrs)), 0}
			}
			streams[rank] = append(streams[rank], op)
		}
	}
	return streams
}

// runPGASProperty executes the workload under one configuration and
// returns its full observable image: every array, the per-rank gather
// logs, and the per-counter sorted fetch-and-add previous values
// (which must be exactly {0..total-1}).
func runPGASProperty(t *testing.T, cfg pgasPropCfg, seed uint64) []int64 {
	t.Helper()
	plan := mustPlan(t, cfg.fault)
	opts := []Option{WithGrid(3, 2), WithObserve()}
	if cfg.sanitize {
		opts = append(opts, WithSanitize())
	}
	if cfg.combining {
		opts = append(opts, WithCombining())
	}
	if plan != nil {
		opts = append(opts, WithFault(plan))
	}
	m, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	np := m.Cells()
	const (
		n    = 71 // prime: every cell owns a different slot count
		ctrs = 4
		ops  = 160
	)
	h, err := NewSymmetricHeap(m)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(name string, ln int64) *SharedArray {
		s, err := h.Alloc(name, ln)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	puts := alloc("prop.put", n)
	adds := alloc("prop.add", n)
	maxs := alloc("prop.max", n)
	mins := alloc("prop.min", n)
	tab := alloc("prop.tab", n)
	ctr := alloc("prop.ctr", ctrs)
	for i := int64(0); i < n; i++ {
		maxs.SetWord(i, -1<<40)
		mins.SetWord(i, 1<<40)
		tab.SetWord(i, i*13+5)
	}
	pes := make([]*PE, np)
	for id := 0; id < np; id++ {
		if pes[id], err = NewPE(h, m.Cell(CellID(id))); err != nil {
			t.Fatal(err)
		}
	}
	var aggs []*AggPE
	if cfg.aggregated {
		ag, err := NewAggregator(h, 16) // small regions force multiple rounds
		if err != nil {
			t.Fatal(err)
		}
		aggs = make([]*AggPE, np)
		for id := 0; id < np; id++ {
			if aggs[id], err = ag.Bind(pes[id]); err != nil {
				t.Fatal(err)
			}
		}
	}

	streams := pgasPropStreams(seed, np, n, ctrs, ops)
	gets := make([][]int64, np)
	fetched := make([][]int64, np)
	mustRun(t, m, func(c *Cell) error {
		me := int(c.ID())
		pe := pes[me]
		// Pre-sized logs: aggregated Get/FetchAdd hold pointers into
		// them until Flush, so they must never reallocate.
		var ng, nf int
		for _, op := range streams[me] {
			switch op.kind {
			case 'g':
				ng++
			case 'f':
				nf++
			}
		}
		gl, fl := make([]int64, 0, ng), make([]int64, 0, nf)
		for _, op := range streams[me] {
			var err error
			if aggs != nil {
				a := aggs[me]
				switch op.kind {
				case 'p':
					err = a.Put(puts, op.i, op.v)
				case 'a':
					err = a.Add(adds, op.i, op.v)
				case 'x':
					err = a.Max(maxs, op.i, op.v)
				case 'n':
					err = a.Min(mins, op.i, op.v)
				case 'g':
					gl = append(gl, 0)
					err = a.Get(tab, op.i, &gl[len(gl)-1])
				case 'f':
					fl = append(fl, 0)
					dst := &fl[len(fl)-1]
					err = a.FetchAdd(ctr, op.i, 1, func(old int64) { *dst = old })
				}
			} else {
				switch op.kind {
				case 'p':
					err = pe.PutInt64(puts, op.i, op.v)
				case 'a':
					err = pe.AtomicAdd(adds, op.i, op.v)
				case 'x':
					err = pe.AtomicMax(maxs, op.i, op.v)
				case 'n':
					err = pe.AtomicMin(mins, op.i, op.v)
				case 'g':
					var v int64
					if v, err = pe.GetInt64(tab, op.i); err == nil {
						gl = append(gl, v)
					}
				case 'f':
					var v int64
					if v, err = pe.FetchAdd(ctr, op.i, 1); err == nil {
						fl = append(fl, v)
					}
				}
			}
			if err != nil {
				return err
			}
		}
		if aggs != nil {
			if err := aggs[me].Flush(); err != nil {
				return err
			}
			if err := aggs[me].Quiesced(); err != nil {
				return fmt.Errorf("cell %d after Flush: %w", me, err)
			}
		}
		pe.Barrier()
		gets[me], fetched[me] = gl, fl
		return nil
	})

	// Fetch-and-add exactness: each counter's previous values, pooled
	// over all ranks, must be exactly {0..total-1}. The sorted pool is
	// therefore deterministic and belongs in the image.
	perCtr := make([][]int64, ctrs)
	for rank := 0; rank < np; rank++ {
		k := 0
		for _, op := range streams[rank] {
			if op.kind == 'f' {
				perCtr[op.i] = append(perCtr[op.i], fetched[rank][k])
				k++
			}
		}
		if k != len(fetched[rank]) {
			t.Fatalf("rank %d logged %d fetches, stream has %d", rank, len(fetched[rank]), k)
		}
	}
	var image []int64
	for c := int64(0); c < ctrs; c++ {
		vals := perCtr[c]
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for want, got := range vals {
			if got != int64(want) {
				t.Fatalf("%s: counter %d previous values %v, want exactly 0..%d",
					cfg.name, c, vals, len(vals)-1)
			}
		}
		if total := ctr.Word(c); total != int64(len(vals)) {
			t.Fatalf("%s: counter %d = %d after %d fetch-adds", cfg.name, c, total, len(vals))
		}
		image = append(image, int64(len(vals)))
		image = append(image, vals...)
	}
	for _, s := range []*SharedArray{puts, adds, maxs, mins} {
		image = append(image, s.Words()...)
	}
	for rank := 0; rank < np; rank++ {
		image = append(image, gets[rank]...)
	}
	return image
}

// TestPGASProperty runs the workload matrix: the naive plain machine
// is the reference image, and every other configuration — aggregated,
// sanitized, faulted, combining — must reproduce it bit for bit.
func TestPGASProperty(t *testing.T) {
	cfgs := []pgasPropCfg{
		{name: "agg-plain", aggregated: true},
		{name: "naive-sanitize", sanitize: true},
		{name: "agg-sanitize", aggregated: true, sanitize: true},
		{name: "naive-fault", fault: "drop=0.05,dup=0.05,seed=42"},
		{name: "agg-fault", aggregated: true, fault: "drop=0.05,dup=0.05,seed=42"},
		{name: "naive-combining", combining: true},
		{name: "agg-combining", aggregated: true, combining: true},
	}
	for _, seed := range []uint64{1, 99} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := runPGASProperty(t, pgasPropCfg{name: "naive-plain"}, seed)
			if len(base) == 0 {
				t.Fatal("empty reference image")
			}
			for _, cfg := range cfgs {
				t.Run(cfg.name, func(t *testing.T) {
					got := runPGASProperty(t, cfg, seed)
					if len(got) != len(base) {
						t.Fatalf("image length %d, reference %d", len(got), len(base))
					}
					for i := range got {
						if got[i] != base[i] {
							t.Fatalf("image[%d] = %d, reference %d", i, got[i], base[i])
						}
					}
				})
			}
		})
	}
}
