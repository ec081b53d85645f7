package main

import "testing"

// The cheap experiments run directly; app-running experiments are
// covered at -quick scale.
func TestRunCheapExperiments(t *testing.T) {
	for _, exp := range []string{"specs", "params", "fig7"} {
		if err := run(options{experiment: exp, quick: true, size: 256, distance: 2}); err != nil {
			t.Errorf("run(%s): %v", exp, err)
		}
	}
}

func TestRunQuickTable2SingleApp(t *testing.T) {
	if err := run(options{experiment: "table2", quick: true, app: "EP"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuickStride(t *testing.T) {
	if err := run(options{experiment: "stride", quick: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunUnknownExperiment pins that apbench never exits 0 having
// produced nothing: unknown experiments, flags the experiment cannot
// honour, and -app filters that leave nothing to report are errors.
func TestRunUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	for _, o := range []options{
		{experiment: "bogus"},
		{experiment: "batch"},
		{experiment: "fig7", metricsJSON: dir + "/m.json"},
		{experiment: "specs", metrics: true},
		{experiment: "params", timeline: dir + "/t.json"},
		{experiment: "fig7", app: "CG"},
		{experiment: "stride", quick: true, app: "CG"},
		{experiment: "table2", quick: true, app: "nope"},
	} {
		if err := run(o); err == nil {
			t.Errorf("run(%+v) succeeded, want an error", o)
		}
	}
}

// TestFaultPlanFromFlags pins the -fault/-fault-seed contract: a seed
// without a plan is an error (not silently ignored), and an explicit
// seed — including 0, which the old sentinel check could never apply —
// overrides the plan's.
func TestFaultPlanFromFlags(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		seed     int64
		seedSet  bool
		wantErr  bool
		wantSeed int64 // -1: no plan
	}{
		{"", 7, true, true, -1},                 // seed without a plan
		{"", 0, false, false, -1},               // no flags
		{"drop=0.01,seed=5", 0, true, false, 0}, // explicit 0 overrides
		{"drop=0.01,seed=5", 0, false, false, 5},
		{"drop=0.01,seed=5", 42, true, false, 42},
		{"not-a-spec", 0, false, true, -1},
	} {
		plan, err := faultPlanFromFlags(tc.spec, tc.seed, tc.seedSet)
		if (err != nil) != tc.wantErr {
			t.Errorf("%+v: err = %v", tc, err)
		} else if tc.wantSeed < 0 && plan != nil || tc.wantSeed >= 0 && (plan == nil || plan.Seed != tc.wantSeed) {
			t.Errorf("%+v: plan = %+v", tc, plan)
		}
	}
}
