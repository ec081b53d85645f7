package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The cheap experiments run directly; app-running experiments are
// covered at -quick scale.
func TestRunCheapExperiments(t *testing.T) {
	for _, exp := range []string{"specs", "params", "fig7"} {
		if err := run(exp, true, 256, 2, "", false, "", ""); err != nil {
			t.Errorf("run(%s): %v", exp, err)
		}
	}
}

func TestRunQuickTable2SingleApp(t *testing.T) {
	if err := run("table2", true, 0, 0, "EP", false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuickStride(t *testing.T) {
	if err := run("stride", true, 0, 0, "", false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("bogus", true, 0, 0, "", false, "", ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run("specs", true, 0, 0, "", false, "", t.TempDir()+"/rows.json"); err == nil {
		t.Fatal("-json accepted for an experiment that reports no rows")
	}
}

// TestRunQuickDSMCache covers the page-cache experiment end to end:
// the cached row must clear a 90% hit rate and carry fewer T-net
// messages than the uncached baseline.
func TestRunQuickDSMCache(t *testing.T) {
	path := t.TempDir() + "/dsmcache.json"
	if err := run("dsmcache", true, 0, 0, "", false, "", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []dsmCacheRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Mode != "uncached" || rows[1].Mode != "cached" {
		t.Fatalf("rows = %+v, want [uncached cached]", rows)
	}
	u, c := rows[0], rows[1]
	if c.HitRate < 0.9 {
		t.Errorf("cached hit rate = %.3f, want >= 0.9", c.HitRate)
	}
	if c.Messages >= u.Messages {
		t.Errorf("cached carried %d messages, uncached %d — cache saved nothing", c.Messages, u.Messages)
	}
	if c.Loads != u.Loads {
		t.Errorf("cached served %d loads, uncached %d — same program must issue the same loads", c.Loads, u.Loads)
	}
}

// TestRunQuickAtomics covers the remote-atomic combining experiment
// end to end: at every machine size the combined row must carry fewer
// atomic messages than the uncombined one — and at 64 cells the hot
// counter must cost well under one wire message per op, the O(n) ->
// O(log n) reduction the combining tree exists for.
func TestRunQuickAtomics(t *testing.T) {
	path := t.TempDir() + "/atomics.json"
	if err := run("atomics", true, 0, 0, "", false, "", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []atomicsRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i := 0; i+1 < len(rows); i += 2 {
		u, c := rows[i], rows[i+1]
		if u.Mode != "uncombined" || c.Mode != "combined" || u.Cells != c.Cells {
			t.Fatalf("row pairing broken: %+v / %+v", u, c)
		}
		if c.AtomicMsgs >= u.AtomicMsgs {
			t.Errorf("%d cells: combined carried %d atomic messages, uncombined %d — combining saved nothing",
				c.Cells, c.AtomicMsgs, u.AtomicMsgs)
		}
		if c.Combined == 0 {
			t.Errorf("%d cells: no requests absorbed into stations", c.Cells)
		}
		if c.Cells >= 64 && c.MsgsPerOp >= 1 {
			t.Errorf("64 cells: combined msgs/op = %.3f, want < 1", c.MsgsPerOp)
		}
	}
}

// TestRunQuickPGAS covers the PGAS aggregation experiment end to end:
// for each kernel the aggregated row must carry at least 5x fewer
// T-net messages per operation than the naive row — the ratio the
// exstack exchange exists for.
func TestRunQuickPGAS(t *testing.T) {
	path := t.TempDir() + "/pgas.json"
	if err := run("pgas", true, 0, 0, "", false, "", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []pgasRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i := 0; i+1 < len(rows); i += 2 {
		n, a := rows[i], rows[i+1]
		if n.Kernel != a.Kernel || n.Mode != "naive" || a.Mode != "agg" || n.Cells != a.Cells {
			t.Fatalf("row pairing broken: %+v / %+v", n, a)
		}
		if a.MsgsPerOp*5 > n.MsgsPerOp {
			t.Errorf("%s at %d cells: naive %.3f msgs/op vs aggregated %.3f — less than the 5x aggregation win",
				n.Kernel, n.Cells, n.MsgsPerOp, a.MsgsPerOp)
		}
	}
}

// TestRunQuickScale covers the wire weak-scaling experiment end to
// end: every row's message count is deterministic (cells × rounds),
// and the -quick run reaches 1024 cells. Throughput is read off the
// full-size `make bench` run, not at -quick scale.
func TestRunQuickScale(t *testing.T) {
	path := t.TempDir() + "/scale.json"
	if err := run("scale", true, 0, 0, "", false, "", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []scaleRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (-quick skips 4096)", len(rows))
	}
	for _, r := range rows {
		if want := int64(r.Cells) * int64(r.Rounds); r.Messages != want {
			t.Errorf("%d cells: %d messages, want %d", r.Cells, r.Messages, want)
		}
	}
	if last := rows[len(rows)-1].Cells; last != 1024 {
		t.Errorf("largest -quick run has %d cells, want 1024", last)
	}
}

// TestRunQuickBatch covers the batched-issue experiment end to end,
// including the JSON report.
func TestRunQuickBatch(t *testing.T) {
	path := t.TempDir() + "/batch.json"
	if err := run("batch", true, 0, 0, "", false, "", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []batchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for i := 0; i+1 < len(rows); i += 2 {
		s, b := rows[i], rows[i+1]
		if s.Workload != b.Workload || s.Mode != "single" || b.Mode != "batched" {
			t.Fatalf("row pairing broken: %+v / %+v", s, b)
		}
		if b.Commands >= s.Commands {
			t.Errorf("%s: batched issued %d commands, single %d — no drop", s.Workload, b.Commands, s.Commands)
		}
	}
}

// TestFaultPlanFromFlags pins the -fault/-fault-seed contract: a seed
// without a plan is an error (not silently ignored), and an explicit
// seed — including 0, which the old sentinel check could never apply —
// overrides the plan's.
func TestFaultPlanFromFlags(t *testing.T) {
	if _, err := faultPlanFromFlags("", 7, true); err == nil {
		t.Error("-fault-seed without -fault must be an error")
	}
	if plan, err := faultPlanFromFlags("", 0, false); err != nil || plan != nil {
		t.Errorf("no flags: plan=%v err=%v, want nil/nil", plan, err)
	}
	plan, err := faultPlanFromFlags("drop=0.01,seed=5", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 0 {
		t.Errorf("explicit -fault-seed 0: plan seed = %d, want 0", plan.Seed)
	}
	if plan, err = faultPlanFromFlags("drop=0.01,seed=5", 0, false); err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 5 {
		t.Errorf("no -fault-seed: plan seed = %d, want the spec's 5", plan.Seed)
	}
	if plan, err = faultPlanFromFlags("drop=0.01,seed=5", 42, true); err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 42 {
		t.Errorf("-fault-seed 42: plan seed = %d, want 42", plan.Seed)
	}
	if _, err := faultPlanFromFlags("not-a-spec", 0, false); err == nil {
		t.Error("bad spec must be an error")
	}
}

// TestRunQuickTenancy covers the multi-tenant experiment end to end:
// both -quick partition counts appear, each configuration has one row
// per tenant, the jobs add up, and the latency numbers are sane
// (p99 >= p50 > 0, positive throughput).
func TestRunQuickTenancy(t *testing.T) {
	path := t.TempDir() + "/tenancy.json"
	if err := run("tenancy", true, 0, 0, "", false, "", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []tenancyRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	perK := map[int][]tenancyRow{}
	for _, r := range rows {
		perK[r.Partitions] = append(perK[r.Partitions], r)
	}
	if len(perK[2]) != 2 || len(perK[4]) != 4 {
		t.Fatalf("rows per partition count = {2:%d, 4:%d}, want one row per tenant", len(perK[2]), len(perK[4]))
	}
	for _, r := range rows {
		if r.Jobs <= 0 {
			t.Errorf("partitions=%d tenant %d: %d jobs", r.Partitions, r.Tenant, r.Jobs)
		}
		if r.P50Ms <= 0 || r.P99Ms < r.P50Ms {
			t.Errorf("partitions=%d tenant %d: p50=%.3f p99=%.3f, want p99 >= p50 > 0",
				r.Partitions, r.Tenant, r.P50Ms, r.P99Ms)
		}
		if r.JobsPerSec <= 0 {
			t.Errorf("partitions=%d tenant %d: jobs/sec = %.1f", r.Partitions, r.Tenant, r.JobsPerSec)
		}
	}
	for k, rs := range perK {
		total := 0
		for _, r := range rs {
			total += r.Jobs
		}
		if total != 160 {
			t.Errorf("partitions=%d: jobs sum to %d, want 160", k, total)
		}
	}
}
