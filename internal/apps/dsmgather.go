package apps

import (
	"fmt"
	"math"

	"ap1000plus/internal/dsm"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/vpp"
)

// DSMGatherConfig configures the DSM gather kernel: every cell owns a
// table of Entries float64 values in its shared-space block, and every
// cell repeatedly gathers pseudo-random entries from every other
// cell's table through the DSM LOAD path — the access pattern the
// write-through page cache exists for (S4.2). With Cache set the
// loads fill the coherent page cache (bounded to CachePages pages);
// without it every load is a blocking remote load. With Updates set,
// one owner per pass rewrites one of its own entries between gather
// rounds, exercising the directory invalidation path: cached and
// uncached runs must still agree bit-for-bit.
type DSMGatherConfig struct {
	Cells   int
	Entries int // table entries per cell
	Passes  int // gather rounds; repeated rounds re-read the same indices
	Reads   int // loads per remote peer per pass
	Updates bool
	Cache   bool
	// CachePages bounds the page cache; 0 keeps the DSM default.
	CachePages int
}

// TestDSMGather is a laptop-scale configuration exercising hits,
// misses and invalidations.
func TestDSMGather() DSMGatherConfig {
	return DSMGatherConfig{Cells: 4, Entries: 96, Passes: 6, Reads: 24,
		Updates: true, Cache: true, CachePages: 8}
}

// gatherSeq is a 64-bit LCG (Knuth's MMIX constants); each pass
// re-seeds it identically so later passes re-read the indices earlier
// passes fetched — the temporal locality the page cache converts into
// hits.
type gatherSeq uint64

func (s *gatherSeq) next() uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	return uint64(*s >> 16)
}

// gatherElem is the initial value of entry i on owner o.
func gatherElem(o, i int) float64 {
	return math.Sin(float64(o*131+i)*0.01) + 0.25
}

// NewDSMGather builds a DSM gather instance. It is not part of the
// paper's Table 2/3 catalog; it exists to drive the DSM page cache
// (TestDSMGatherMessageCounts pins its traffic cached and uncached).
func NewDSMGather(cfg DSMGatherConfig) (*Instance, error) {
	if cfg.Cells < 2 {
		return nil, fmt.Errorf("apps: DSMGather: need at least 2 cells, have %d", cfg.Cells)
	}
	if cfg.Entries < 1 || cfg.Passes < 1 || cfg.Reads < 1 {
		return nil, fmt.Errorf("apps: DSMGather: Entries, Passes and Reads must be positive")
	}
	in, err := newInstance("DSMGather", cfg.Cells, 8<<20)
	if err != nil {
		return nil, err
	}
	m := in.Machine
	np := m.Cells()

	tab, err := newPerCellBuf(m, "gather.table", cfg.Entries)
	if err != nil {
		return nil, err
	}
	ds := make([]*dsm.DSM, np)
	for r := 0; r < np; r++ {
		d, err := dsm.New(m.Cell(topology.CellID(r)))
		if err != nil {
			return nil, err
		}
		if cfg.Cache {
			d.EnableWriteThroughPages()
			if cfg.CachePages > 0 {
				d.SetCacheCapacity(cfg.CachePages)
			}
		}
		ds[r] = d
	}

	// seed derives the per-peer index stream; identical in Program and
	// Verify.
	seed := func(o int) gatherSeq { return gatherSeq(uint64(o)*2654435761 + 12345) }
	// value models what entry idx of owner o holds during pass p: with
	// updates on, owner o rewrote its entry q at the end of pass q for
	// every q < p with q%np == o.
	value := func(o, idx, p int) float64 {
		v := gatherElem(o, idx)
		if cfg.Updates && idx < p && idx%np == o {
			v += float64(idx + 1)
		}
		return v
	}

	sums := make([]float64, np)
	in.Program = func(rt *vpp.Runtime) error {
		r := rt.Rank()
		d := ds[r]
		mine := tab.slice(r)
		for i := range mine {
			mine[i] = gatherElem(r, i)
		}
		rt.Barrier()
		acc := 0.0
		for p := 0; p < cfg.Passes; p++ {
			for o := 0; o < np; o++ {
				if o == r {
					continue
				}
				seq := seed(o)
				for k := 0; k < cfg.Reads; k++ {
					idx := int(seq.next() % uint64(cfg.Entries))
					ga, err := d.Space().Global(topology.CellID(o), tab.addr(o, idx))
					if err != nil {
						return err
					}
					v, err := d.LoadF64(ga)
					if err != nil {
						return err
					}
					acc += v * float64(p+1)
				}
			}
			if cfg.Updates {
				// Separate every cell's gathers from this pass's update:
				// without this barrier a slow reader could observe the
				// update mid-pass.
				rt.Barrier()
			}
			if cfg.Updates && p%np == r && p < cfg.Entries {
				gaw, err := d.Space().Global(topology.CellID(r), tab.addr(r, p))
				if err != nil {
					return err
				}
				// A local store to our own block still fans out
				// invalidations to every sharer before it returns.
				if err := d.StoreF64(gaw, gatherElem(r, p)+float64(p+1)); err != nil {
					return err
				}
				d.Fence()
			}
			// The pass barrier orders this pass's update before the next
			// pass's gathers on every cell.
			rt.Barrier()
		}
		sums[r] = acc
		return nil
	}
	in.Verify = func() error {
		for r := 0; r < np; r++ {
			want := 0.0
			for p := 0; p < cfg.Passes; p++ {
				for o := 0; o < np; o++ {
					if o == r {
						continue
					}
					seq := seed(o)
					for k := 0; k < cfg.Reads; k++ {
						idx := int(seq.next() % uint64(cfg.Entries))
						want += value(o, idx, p) * float64(p+1)
					}
				}
			}
			if math.Abs(sums[r]-want) > 1e-9*math.Max(1, math.Abs(want)) {
				return fmt.Errorf("rank %d gathered %g, want %g", r, sums[r], want)
			}
		}
		return nil
	}
	return in, nil
}
