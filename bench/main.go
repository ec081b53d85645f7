// Command bench is the repository's one benchmark: seven named
// workloads, nine end-to-end metrics, and per-layer probes that add up
// to a host-side Figure 7. See README.md in this directory.
//
//	go run -C bench .                          every workload, each in its own process
//	go run -C bench . -workload put_stream     one workload
//	go run -C bench . -workload rtt_mix -trace 1   the traced pass: per-layer metrics
//	go run -C bench . -probes                  the stage probes alone
//	go run -C bench . -runs 5 -out A.json      five runs per workload, medians and quartiles
//	go run -C bench . -agree A.json B.json     compare two result sets against the bounds
//	go run -C bench . -update-golden           regenerate golden/*.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// benchVersion changes whenever a workload, a metric definition or a
// reference size changes: results of different versions do not compare.
const benchVersion = "1"

// referenceSeconds is the run length the reference iteration counts
// were sized for on the 2-core reference box.
const referenceSeconds = 10

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one run of one workload, with everything needed to interpret
// it later.
type row struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Traced      bool                   `json:"traced"`
	Run         int                    `json:"run"`
	Correct     bool                   `json:"correct"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	SimChecked  int                    `json:"sim_checked"`
	SimMismatch int                    `json:"sim_mismatch"`
	Samples     int                    `json:"lat_samples"`
	Tail        int                    `json:"tail_percentile"`
	Beyond      int                    `json:"lat_samples_beyond_tail"`
	Ladder      map[string]float64     `json:"lat_ladder_us,omitempty"`
	Segments    map[string][]float64   `json:"segments,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Env         provenance             `json:"env"`
}

// resultSet is what -out writes and -agree reads.
type resultSet struct {
	Env  provenance `json:"env"`
	Rows []row      `json:"rows"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1994, "seed every generated input derives from")
	seconds := fs.Float64("seconds", referenceSeconds, "length of the timed phase on the reference box; scales the fixed iteration counts")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and stage probes, per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the traced pass writes its Chrome trace to (default .bench_build/traces/<workload>.json at the checkout root)")
	runs := fs.Int("runs", 1, "runs per workload; more than one reports median and quartiles per metric")
	outPath := fs.String("out", "", "write the result set (every row, with provenance) to this JSON file")
	probesOnly := fs.Bool("probes", false, "run the stage probes alone")
	agree := fs.Bool("agree", false, "compare two result sets: -agree A.json B.json")
	updateGolden := fs.Bool("update-golden", false, "rerun every workload for the golden seeds and rewrite golden/*.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Pin the scheduler width before anything is built: the ring wire
	// sizes its delivery shards from it, so it is part of the benchmark's
	// definition, and recorded with every row.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case *agree:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -agree A.json B.json")
			return 2
		}
		return runAgree(stdout, fs.Arg(0), fs.Arg(1))
	case *updateGolden:
		if err := runUpdateGolden(stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *probesOnly:
		out := map[string]float64{}
		runProbes(out, false)
		for _, d := range perLayer {
			if v, ok := out[d.name]; ok {
				fmt.Fprintf(stdout, "  %-36s %14.4f %s\n", d.name, v, d.unit)
			}
		}
		return 0
	case *workloadName != "":
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		r, err := runOne(w, *seed, *seconds, *traceMode == 1, *traceOut, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printRow(stdout, r)
		full, _ := json.Marshal(r)
		fmt.Fprintf(stdout, "# row %s\n", full)
		last, _ := json.Marshal(map[string]any{
			"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
		})
		fmt.Fprintf(stdout, "%s\n", last)
		return 0
	}
	return runAll(stdout, *seed, *seconds, *traceMode, *runs, *outPath)
}

// runOne runs one workload in this process: the end-to-end pass, or
// (traced) a quarter-length untraced pass and a quarter-length traced
// pass; put_stream's traced run also runs the stage probes, which its
// reconciliation needs.
func runOne(w *workload, seed uint64, seconds float64, traced bool, traceOut string, short bool) (*row, error) {
	r := &row{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Tail: w.tail, Metrics: map[string]metricValue{}, Env: environment(),
	}
	cfg := &runCfg{seed: seed, scale: seconds / referenceSeconds, short: short}
	if !traced {
		o, err := runPass(w, cfg, setupReps)
		if err != nil {
			return nil, err
		}
		r.fill(w, o, short)
		vals := map[string]float64{
			"setup_s":         median(o.setupS),
			"ops_per_s":       o.m.opsPerS,
			"cpu_ns_per_op":   o.m.cpuNsPerOp,
			"lat_p50_us":      o.m.latP50Us,
			"lat_tail_us":     o.m.latTailUs,
			"allocs_per_op":   o.m.allocsPerOp,
			"peak_rss_mb":     peakRSSMiB(),
			"pass_ratio":      1 - float64(r.Failed)/float64(max(r.Attempted, 1)),
			"sim_match_ratio": 1 - float64(r.SimMismatch)/float64(max(r.SimChecked, 1)),
		}
		for _, d := range endToEnd {
			r.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		return r, nil
	}

	// The traced pass. Both halves run at a quarter of the length; the
	// untraced half is the base obs.overhead_pct and the put_stream
	// reconciliation are taken against.
	cfg.scale /= 4
	base, err := runPass(w, cfg, 1)
	if err != nil {
		return nil, err
	}
	tcfg := *cfg
	tcfg.traced = true
	tcfg.rec = newRecorder()
	tcfg.drv = tcfg.rec.newTrack()
	o, err := runPass(w, &tcfg, 1)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# traced pass: untraced base ops_per_s=%.4f cpu_ns_per_op=%.4f; traced ops_per_s=%.4f cpu_ns_per_op=%.4f\n",
		base.m.opsPerS, base.m.cpuNsPerOp, o.m.opsPerS, o.m.cpuNsPerOp)
	r.fill(w, o, short)
	r.Failed += base.failed
	r.Attempted += base.attempted
	vals := o.layers
	if base.m.opsPerS > 0 {
		vals["obs.overhead_pct"] = 100 * (base.m.opsPerS - o.m.opsPerS) / base.m.opsPerS
	}
	if w.name == "put_stream" {
		runProbes(vals, short)
		reconcilePut(vals, base.m.cpuNsPerOp)
	}
	for _, d := range perLayer {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	r.Correct = r.Failed == 0 && r.SimMismatch == 0
	if err := writeTrace(tcfg.rec, w.name, traceOut); err != nil {
		return nil, err
	}
	return r, nil
}

// fill copies a pass's outcome and golden verdict into the row.
func (r *row) fill(w *workload, o *outcome, short bool) {
	r.Attempted, r.Failed = o.attempted, o.failed
	r.Samples, r.Beyond, r.Ladder = o.m.samples, o.m.beyond, o.m.ladder
	r.Segments = o.m.segs
	r.SimChecked, r.SimMismatch = compareGolden(w.name, r.Seed, short, o.sim)
	r.Correct = r.Failed == 0 && r.SimMismatch == 0
}

// reconcilePut builds the outside-in host Figure 7 for one put_stream
// PUT: the stages the benchmark can price from outside (issue from the
// traced pass, everything else from the isolated probes) against the
// untraced CPU per op. What is left is the worker pool, parking and the
// Go scheduler.
func reconcilePut(v map[string]float64, cpuNsPerOp float64) {
	spill := math.Min(v["msc.spills_per_kop"]/1000, 1)
	mscStage := spill*v["msc.ring_spill_ns"] + (1-spill)*v["msc.ring_push_pop_ns"]
	sum := v["core.put_issue_ns"] + mscStage + v["mem.capture_512_ns"] +
		v["tnet.send_ring_ns"] + v["mem.deliver_512_ns"] + v["mc.flag_inc_ns"]
	v["machine.put_stage_sum_ns"] = sum
	if cpuNsPerOp > 0 {
		v["machine.put_unattributed_pct"] = 100 * (cpuNsPerOp - sum) / cpuNsPerOp
	}
}

// checkoutRoot is the repository root seen from the benchmark's working
// directory: go run -C bench and go test both run it inside bench/.
const checkoutRoot = ".."

func writeTrace(rec *recorder, name, path string) error {
	if path == "" {
		path = filepath.Join(checkoutRoot, ".bench_build", "traces", name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printRow(w io.Writer, r *row) {
	fmt.Fprintf(w, "workload %s  seed=%d seconds=%g traced=%v  attempted=%d failed=%d sim_checked=%d sim_mismatch=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Attempted, r.Failed, r.SimChecked, r.SimMismatch)
	fmt.Fprintf(w, "  env: %s\n", r.Env)
	fmt.Fprintf(w, "  latency: %d samples, tail=p%d with %d beyond it, ladder (us):", r.Samples, r.Tail, r.Beyond)
	for _, p := range ladderPercentiles {
		fmt.Fprintf(w, " p%d=%.4g", p, r.Ladder[fmt.Sprintf("p%d", p)])
	}
	fmt.Fprintf(w, "\n  ops_per_s by segment: %.4g\n", r.Segments["ops_per_s"])
	if !r.Traced {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
		}
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-36s %16.4f %-5s -> %s\n", d.name, r.Metrics[d.name].Value, d.unit, d.moves)
	}
}

// runAll runs every workload, each run in its own child process so
// that peak RSS and GC state are per workload, and prints one table per
// workload: the value, or with -runs N the median and quartiles.
func runAll(stdout io.Writer, seed uint64, seconds float64, traceMode, runs int, outPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	set := resultSet{Env: environment()}
	status := 0
	for _, w := range workloads {
		var rows []row
		for k := 0; k < runs; k++ {
			r, err := runChild(exe, w.name, seed, seconds, traceMode)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				status = 1
				continue
			}
			r.Run = k
			if !r.Correct {
				status = 1
			}
			rows = append(rows, *r)
		}
		printRows(stdout, w, rows, traceMode == 1)
		set.Rows = append(set.Rows, rows...)
	}
	if outPath != "" {
		data, _ := json.MarshalIndent(set, "", " ")
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload once in a child process and parses the
// row it prints. The child is waited for before returning.
func runChild(exe, name string, seed uint64, seconds float64, traceMode int) (*row, error) {
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traceMode))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "# row "); ok {
			var r row
			if err := json.Unmarshal([]byte(rest), &r); err != nil {
				return nil, err
			}
			return &r, nil
		}
	}
	return nil, fmt.Errorf("child printed no row")
}

func printRows(w io.Writer, wl *workload, rows []row, traced bool) {
	if len(rows) == 0 {
		return
	}
	if len(rows) == 1 {
		printRow(w, &rows[0])
		return
	}
	var failed, mismatch int64
	for _, r := range rows {
		failed += r.Failed
		mismatch += int64(r.SimMismatch)
	}
	fmt.Fprintf(w, "workload %s  seed=%d seconds=%g traced=%v runs=%d failed=%d sim_mismatch=%d tail=p%d\n",
		wl.name, rows[0].Seed, rows[0].Seconds, traced, len(rows), failed, mismatch, wl.tail)
	fmt.Fprintf(w, "  env: %s\n", rows[0].Env)
	fmt.Fprintf(w, "  %-36s %16s %16s %16s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		vals := metricValues(rows, d.name)
		med := median(vals)
		q1, q3 := quartiles(vals)
		fmt.Fprintf(w, "  %-36s %16.4f %16.4f %16.4f %7.2f%% %s\n", d.name, med, q1, q3, 100*spread(vals), d.unit)
	}
}

func metricValues(rows []row, name string) []float64 {
	var v []float64
	for _, r := range rows {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	med := median(vals)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / med)
}
