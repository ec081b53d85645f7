// Chaos suite for the PGAS kernels: histogram and toposort — in both
// naive and aggregated modes — run under seeded fault plans and must
// reproduce the fault-free snapshot bit for bit, with per-cell flag
// increments and controller atomic executions exactly equal
// (exactly-once delivery under drops, duplicates, reorders and
// corruption), and the fault counters showing the plan actually fired.
package ap1000plus

import (
	"runtime"
	"testing"

	"ap1000plus/internal/apps"
	"ap1000plus/internal/fault"
)

// runPGASChaosKernel builds and runs one kernel instance under an
// optional plan, returning the verified snapshot and metrics. The apps
// package builds its machines with the default worker count,
// min(GOMAXPROCS, cells), so the sweep sets GOMAXPROCS around the run.
func runPGASChaosKernel(t *testing.T, build func(mode apps.PGASMode, snap *[]int64) (*apps.Instance, error), mode apps.PGASMode, plan *fault.Plan, workers int) ([]int64, Metrics) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	obsWas, faultWas := apps.Observe, apps.Fault
	apps.Observe, apps.Fault = true, plan
	defer func() { apps.Observe, apps.Fault = obsWas, faultWas }()

	var snap []int64
	in, err := build(mode, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("kernel produced an empty snapshot")
	}
	return snap, in.Machine.Metrics()
}

// TestChaosPGASKernels drives histogram and toposort, naive and
// aggregated, under every plan.
func TestChaosPGASKernels(t *testing.T) {
	kernels := []struct {
		name  string
		build func(mode apps.PGASMode, snap *[]int64) (*apps.Instance, error)
	}{
		{"histogram", func(mode apps.PGASMode, snap *[]int64) (*apps.Instance, error) {
			return apps.NewPGASHisto(apps.PGASHistoConfig{
				Cells: 4, Table: 53, OpsPerCell: 200,
				Mode: mode, Packets: 16, Seed: 42, Snapshot: snap,
			})
		}},
		{"toposort", func(mode apps.PGASMode, snap *[]int64) (*apps.Instance, error) {
			return apps.NewPGASToposort(apps.PGASToposortConfig{
				Cells: 4, N: 40, Extra: 3,
				Mode: mode, Packets: 16, Seed: 3, Snapshot: snap,
			})
		}},
	}
	for _, k := range kernels {
		for _, mode := range []apps.PGASMode{apps.PGASNaive, apps.PGASAggregated} {
			t.Run(k.name+"/"+mode.String(), func(t *testing.T) {
				base, baseM := runPGASChaosKernel(t, k.build, mode, nil, 4)
				if baseM.Fault != nil {
					t.Fatal("fault metrics reported on a fault-free machine")
				}
				for _, p := range chaosPlans {
					t.Run(p.name, func(t *testing.T) {
						plan := mustPlan(t, p.spec)
						for _, workers := range chaosWorkers {
							got, mt := runPGASChaosKernel(t, k.build, mode, plan, workers)
							if len(got) != len(base) {
								t.Fatalf("snapshot length %d, fault-free %d", len(got), len(base))
							}
							for i := range got {
								if got[i] != base[i] {
									t.Fatalf("snapshot[%d] = %d, fault-free run produced %d", i, got[i], base[i])
								}
							}
							for i := range mt.Cells {
								if g, w := mt.Cells[i].FlagIncrements, baseM.Cells[i].FlagIncrements; g != w {
									t.Errorf("cell %d flag increments = %d, fault-free %d (exactly-once violated)", i, g, w)
								}
								if g, w := mt.Cells[i].AtomicsExecuted, baseM.Cells[i].AtomicsExecuted; g != w {
									t.Errorf("cell %d atomics executed = %d, fault-free %d (exactly-once violated)", i, g, w)
								}
							}
							f := mt.Fault
							if f == nil {
								t.Fatal("Metrics().Fault nil on a machine with a fault plan")
							}
							if f.CellFaults != 0 {
								t.Fatalf("retry budget exhausted %d times under a recoverable plan", f.CellFaults)
							}
							if p.drops && (f.Drops == 0 || f.Retransmits == 0) {
								t.Errorf("drop plan: drops=%d retransmits=%d, want both > 0", f.Drops, f.Retransmits)
							}
							if p.dups && (f.Dups == 0 || f.Dedups == 0) {
								t.Errorf("dup plan: dups=%d dedups=%d, want both > 0", f.Dups, f.Dedups)
							}
						}
					})
				}
			})
		}
	}
}
