package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"testing/fstest"
)

// benchmarkJSON is the part of the root BENCHMARK.json the tables in
// metrics.go must repeat.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables in
// metrics.go together: same workloads and reasons, same metrics, units,
// directions and bounds, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(checkoutRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or the reasons differ)", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (bounded && g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if !metricName.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated metric name %q", kind, d.name)
			}
			seen[d.name] = true
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
}

// TestShortPass runs all seven workloads at go-test sizes, end to end
// and traced (put_stream's includes the stage probes), and asserts that
// every metric named in the tables is emitted exactly once per workload,
// is finite, that every operation and check passed, and that the
// simulated statistics are the ones the goldens pin for these sizes.
func TestShortPass(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			tracePath := filepath.Join(dir, w.name+".json")
			r, err := runOne(w, 1994, 10, traced, tracePath, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || r.SimMismatch != 0 || r.SimChecked < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d sim_checked=%d sim_mismatch=%d",
					w.name, traced, r.Correct, r.Attempted, r.Failed, r.SimChecked, r.SimMismatch)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, d.name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("%s traced=%v: %s = %v %q", w.name, traced, d.name, m.Value, m.Unit)
				}
				// The driver refuses a metric that reads 0; only allocations
				// per op could legitimately get there.
				if !traced && (m.Value < 0 || m.Value == 0 && d.name != "allocs_per_op") {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
			if !traced {
				continue
			}
			if w.name == "put_stream" {
				for _, name := range []string{"ring.spsc_pushpop_ns", "mc.flag_wake_us", "mem.copy_64k_gb_per_s", "event.push_pop_ns", "machine.put_stage_sum_ns"} {
					if r.Metrics[name].Value <= 0 {
						t.Errorf("put_stream: %s = %v", name, r.Metrics[name].Value)
					}
				}
			}
			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatalf("%s: no Chrome trace: %v", w.name, err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("%s: Chrome trace does not load (%v) or is empty", w.name, err)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns, the driver's definition.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{3, 1}, 0.5, 3.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestAgree feeds -agree synthetic result sets: one pairing inside its
// bound, one breaching it, one whose spread is wider than the bound, and
// the absolute slack at and near a baseline of 0.
func TestAgree(t *testing.T) {
	defs := []metricDef{
		{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.08},
		{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.10},
		{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.10, abs: 0.02},
	}
	set := func(ops, lat, allocs []float64) *resultSet {
		s := &resultSet{}
		for i := range ops {
			s.Rows = append(s.Rows, row{Workload: "w", Run: i, Correct: true, Metrics: map[string]metricValue{
				"ops_per_s":     {ops[i], "1/s"},
				"lat_p50_us":    {lat[i], "us"},
				"allocs_per_op": {allocs[i], "count"},
			}})
		}
		return s
	}
	ops := []float64{100, 101, 99, 100, 102}
	lat := []float64{10, 10.1, 9.9, 10, 10.2}
	zero := []float64{0, 0, 0, 0, 0}
	all := func(v float64) []float64 { return []float64{v, v, v, v, v} }
	base := set(ops, lat, zero)
	cases := []struct {
		name string
		b    *resultSet
		exit int
		want string
	}{
		{"within", set([]float64{97, 98, 96, 97, 99}, []float64{10.5, 10.4, 10.6, 10.5, 10.5}, zero), 0, "agree within"},
		{"breach", set([]float64{90, 91, 89, 90, 90}, lat, zero), 1, "BREACH"},
		{"unresolved", set(ops, []float64{8, 14, 9, 13, 10}, zero), 1, "unresolved"},
		{"every run better", set(ops, []float64{5, 9, 6, 8, 7}, zero), 0, "every B run better"},
		{"zero baseline, inside the slack", set(ops, lat, all(0.015)), 0, "agree within"},
		{"zero baseline, beyond the slack", set(ops, lat, all(0.03)), 1, "BREACH"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := agree(&out, []string{"w"}, defs, base, c.b); got != c.exit || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d; output lacks %q:\n%s", c.name, got, c.exit, c.want, out.String())
		}
	}
	failing := set(ops, lat, zero)
	failing.Rows[2].Failed = 3
	var out bytes.Buffer
	if agree(&out, []string{"w"}, defs, base, failing) == 0 {
		t.Error("a set with failed operations must not agree")
	}
}

// TestCompareGolden: a statistic that differs, is missing or is new is a
// mismatch, and so is a golden file that is missing or does not parse.
func TestCompareGolden(t *testing.T) {
	golden := func(body string) fstest.MapFS {
		return fstest.MapFS{"golden/w.json": {Data: []byte(body)}}
	}
	good := golden(`{"any": {"msgs": 4, "bytes": 64}, "seeds": {"1994": {"digest": 7}}, "short": {"any": {"msgs": 2}, "seeds": {}}}`)
	sim := func(anyStats, seeded map[string]int64) simStats { return simStats{any: anyStats, seeded: seeded} }
	cases := []struct {
		name              string
		fsys              fstest.MapFS
		seed              uint64
		short             bool
		sim               simStats
		checked, mismatch int
	}{
		{"identical", good, 1994, false, sim(map[string]int64{"msgs": 4, "bytes": 64}, map[string]int64{"digest": 7}), 3, 0},
		{"value differs", good, 1994, false, sim(map[string]int64{"msgs": 5, "bytes": 64}, map[string]int64{"digest": 7}), 3, 1},
		{"statistic missing", good, 1994, false, sim(map[string]int64{"msgs": 4}, map[string]int64{"digest": 7}), 3, 1},
		{"statistic without golden", good, 1994, false, sim(map[string]int64{"msgs": 4, "bytes": 64, "hops": 1}, map[string]int64{"digest": 7}), 4, 1},
		{"seeded digest differs", good, 1994, false, sim(map[string]int64{"msgs": 4, "bytes": 64}, map[string]int64{"digest": 8}), 3, 1},
		{"other seed: any only", good, 7, false, sim(map[string]int64{"msgs": 4, "bytes": 64}, map[string]int64{"digest": 8}), 2, 0},
		{"go-test sizes", good, 1994, true, sim(map[string]int64{"msgs": 2}, nil), 1, 0},
		{"file missing", fstest.MapFS{}, 1994, false, sim(map[string]int64{"msgs": 4}, nil), 1, 1},
		{"file corrupt", golden(`{"any": {`), 1994, false, sim(map[string]int64{"msgs": 4}, nil), 1, 1},
		{"file empty of statistics", golden(`{}`), 1994, false, sim(map[string]int64{}, nil), 1, 1},
	}
	for _, c := range cases {
		checked, mismatch := compareGoldenFS(c.fsys, "w", c.seed, c.short, c.sim)
		if checked != c.checked || mismatch != c.mismatch {
			t.Errorf("%s: checked %d mismatch %d, want %d and %d", c.name, checked, mismatch, c.checked, c.mismatch)
		}
	}
}

// TestGoldensCommitted: every workload has a golden that parses and
// carries both committed seeds at both sizes.
func TestGoldensCommitted(t *testing.T) {
	for _, w := range workloads {
		g, err := loadGolden(goldenFS, w.name)
		if err != nil {
			t.Error(err)
			continue
		}
		for _, seed := range goldenSeeds {
			key := fmt.Sprint(seed)
			if _, ok := g.Seeds[key]; !ok {
				t.Errorf("%s: no goldens for seed %d", w.name, seed)
			}
			if _, ok := g.Short.Seeds[key]; !ok {
				t.Errorf("%s: no go-test-size goldens for seed %d", w.name, seed)
			}
		}
	}
}
