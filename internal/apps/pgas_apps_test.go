package apps

import (
	"reflect"
	"testing"
)

// pgasKernelBuilders enumerates the four bale kernels at test sizes.
// Each builder captures its snapshot slice so the two modes can be
// compared bit for bit.
func pgasKernelBuilders(mode PGASMode, snap *[]int64) map[string]Builder {
	return map[string]Builder{
		"histogram": func() (*Instance, error) {
			return NewPGASHisto(PGASHistoConfig{
				Cells: 6, Table: 97, OpsPerCell: 300,
				Mode: mode, Packets: 16, Seed: 42, Snapshot: snap,
			})
		},
		"indexgather": func() (*Instance, error) {
			return NewPGASIG(PGASIGConfig{
				Cells: 6, Table: 83, OpsPerCell: 250,
				Mode: mode, Packets: 16, Seed: 7, Snapshot: snap,
			})
		},
		"transpose": func() (*Instance, error) {
			return NewPGASTranspose(PGASTransposeConfig{
				Cells: 6, Rows: 40, Cols: 31, NnzPerRow: 5,
				Mode: mode, Packets: 16, Seed: 11, Snapshot: snap,
			})
		},
		"toposort": func() (*Instance, error) {
			return NewPGASToposort(PGASToposortConfig{
				Cells: 6, N: 48, Extra: 3,
				Mode: mode, Packets: 16, Seed: 3, Snapshot: snap,
			})
		},
	}
}

// TestPGASKernels runs every bale kernel in both modes under the race
// sanitizer; each Verify is analytic, and the aggregated snapshot must
// be bit-identical to the naive one.
func TestPGASKernels(t *testing.T) {
	sanWas := Sanitize
	Sanitize = true
	defer func() { Sanitize = sanWas }()

	var naive, agg []int64
	for name := range pgasKernelBuilders(PGASNaive, nil) {
		t.Run(name, func(t *testing.T) {
			for _, m := range []struct {
				mode PGASMode
				out  *[]int64
			}{{PGASNaive, &naive}, {PGASAggregated, &agg}} {
				in, err := pgasKernelBuilders(m.mode, m.out)[name]()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := in.Run(); err != nil {
					t.Fatal(err)
				}
			}
			if len(naive) == 0 {
				t.Fatal("empty snapshot")
			}
			if !reflect.DeepEqual(naive, agg) {
				t.Errorf("aggregated snapshot differs from naive (%d words)", len(naive))
			}
		})
	}
}

// TestPGASMessageCounts pins what aggregation does to the wire on the
// histogram and index-gather kernels at 16 cells. Naive issue is one
// request and one reply per histogram update. Aggregated issue packs
// operations into per-destination regions, so its message count is
// set by the exchange rounds, not the operations: the same at 128 and
// 512 ops per cell, and at least 5x fewer per op than naive.
func TestPGASMessageCounts(t *testing.T) {
	obsWas := Observe
	Observe = true
	defer func() { Observe = obsWas }()
	const cells = 16
	messages := func(kernel string, mode PGASMode, ops int) int64 {
		t.Helper()
		var in *Instance
		var err error
		if kernel == "histogram" {
			in, err = NewPGASHisto(PGASHistoConfig{Cells: cells, Table: cells * 61, OpsPerCell: ops, Mode: mode, Seed: 42})
		} else {
			in, err = NewPGASIG(PGASIGConfig{Cells: cells, Table: cells * 61, OpsPerCell: ops, Mode: mode, Seed: 7})
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in.Machine.Metrics().TNet.Messages
	}
	for _, k := range []struct {
		kernel string
		agg    int64
	}{{"histogram", 300}, {"indexgather", 600}} {
		naive := messages(k.kernel, PGASNaive, 128)
		if k.kernel == "histogram" && naive != 2*cells*128 {
			t.Errorf("naive histogram: %d messages, want 2·ops = %d", naive, 2*cells*128)
		}
		for _, ops := range []int{128, 512} {
			if got := messages(k.kernel, PGASAggregated, ops); got != k.agg {
				t.Errorf("aggregated %s at %d ops/cell: %d messages, want %d", k.kernel, ops, got, k.agg)
			}
		}
		if naive < 5*k.agg {
			t.Errorf("%s: naive %d vs aggregated %d messages, want at least 5x fewer", k.kernel, naive, k.agg)
		}
	}
}
