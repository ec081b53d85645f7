package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runAgree compares result set B against A, metric by metric and
// workload by workload, with the bounds of the endToEnd table (which
// bench_test.go holds equal to BENCHMARK.json's):
//
//	ok          B's median is no worse than A's by more than the bound
//	BREACH      it is worse by more than the bound
//	unresolved  the run-to-run spread of A or B is wider than the bound,
//	            so the medians cannot tell (unless every run of B reads
//	            better than every run of A)
//
// The bound is a share of A's median, or the metric's absolute slack
// where that is larger, so a baseline of 0 is breached by any increase
// beyond the slack. It exits non-zero on any breach or unresolved
// pairing, and on any failed operation or simulated-statistic mismatch
// in either set.
func runAgree(stdout io.Writer, pathA, pathB string) int {
	a, err := loadResultSet(pathA)
	if err == nil {
		var b *resultSet
		if b, err = loadResultSet(pathB); err == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			return agree(stdout, names, endToEnd, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench: -agree:", err)
	return 2
}

func agree(stdout io.Writer, names []string, defs []metricDef, a, b *resultSet) int {
	fmt.Fprintf(stdout, "A: %s\nB: %s\n", a.Env, b.Env)
	bad := 0
	for _, name := range names {
		ra, rb := rowsOf(a, name), rowsOf(b, name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(stdout, "%-13s missing from a result set (A %d runs, B %d runs)\n", name, len(ra), len(rb))
			bad++
			continue
		}
		fmt.Fprintf(stdout, "%-13s %-16s %14s %14s %8s %7s %7s %6s  verdict (A %d runs, B %d runs)\n",
			name, "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound", len(ra), len(rb))
		for _, r := range append(append([]row(nil), ra...), rb...) {
			if r.Failed != 0 || r.SimMismatch != 0 {
				fmt.Fprintf(stdout, "%-13s run %d: failed=%d sim_mismatch=%d\n", "", r.Run, r.Failed, r.SimMismatch)
				bad++
			}
		}
		for _, d := range defs {
			va, vb := metricValues(ra, d.name), metricValues(rb, d.name)
			ma, mb := median(va), median(vb)
			// worse is by how much B's median is worse than A's, in the
			// metric's unit, like what allowed returns.
			worse := mb - ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case iqr(va) > d.allowed(ma) || iqr(vb) > d.allowed(mb):
				verdict = "unresolved"
				if allBetter(va, vb, d.better) {
					verdict = "ok (every B run better)"
				}
			case worse > d.allowed(ma):
				verdict = "BREACH"
			}
			if verdict == "unresolved" || verdict == "BREACH" {
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-16s %14.4f %14.4f %+7.2f%% %6.2f%% %6.2f%% %5.1f%%  %s\n",
				"", d.name, ma, mb, 100*(mb-ma)/nonzero(ma), 100*spread(va), 100*spread(vb), 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d pairings breached, unresolved or incorrect\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "the two sets agree within the bounds")
	return 0
}

// allowed is by how much the metric may worsen from a median, or its
// runs spread around one: the bound's share of the median, or the
// absolute slack where that is larger.
func (d metricDef) allowed(median float64) float64 {
	return math.Max(d.bound*math.Abs(median), d.abs)
}

func iqr(v []float64) float64 {
	q1, q3 := quartiles(v)
	return q3 - q1
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func rowsOf(s *resultSet, workload string) []row {
	var out []row
	for _, r := range s.Rows {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "lower" && y >= x) || (better == "higher" && y <= x) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}
