// Command apbench regenerates every table and figure of the paper's
// evaluation (S5): Table 1 (specifications), Figure 6 (parameter
// files), Figure 7 (the PUT communication model), Table 2 (speedups
// vs the AP1000), Table 3 (application statistics) and Figure 8 (the
// execution-time breakdown), plus the S5.4 stride ablation and a T-net
// link-contention analysis.
//
// Usage:
//
//	apbench -experiment all            # everything at paper scale
//	apbench -experiment table2 -quick  # reduced problem sizes
//	apbench -experiment fig7 -size 1024 -distance 3
//	apbench -experiment table2 -quick -metrics -timeline t.json
//
// -metrics prints each application's machine counter report; -metrics-json
// writes them as JSON (for make bench / BENCH_obs.json). -timeline
// writes a merged Chrome trace-event file loadable at ui.perfetto.dev.
// These three and -app need an experiment that runs the applications:
// specs, params and fig7 reject them.
//
// apbench reports simulated time and counts. Host wall-clock time is
// measured by the bench module (go run -C bench .), which repeats each
// workload and stamps every row with its environment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ap1000plus/internal/apps"
	"ap1000plus/internal/fault"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mlsim"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/params"
	"ap1000plus/internal/stats"
)

// options is what one apbench invocation produces and where.
type options struct {
	experiment  string
	quick       bool
	size        int64 // fig7 message size
	distance    int   // fig7 routing distance
	app         string
	metrics     bool
	metricsJSON string
	timeline    string
}

func main() {
	var o options
	flag.StringVar(&o.experiment, "experiment", "all",
		"specs|params|fig7|table2|table3|fig8|stride|contention|all")
	flag.BoolVar(&o.quick, "quick", false, "use reduced problem sizes")
	flag.Int64Var(&o.size, "size", 1024, "message size for fig7")
	flag.IntVar(&o.distance, "distance", 3, "routing distance for fig7")
	flag.StringVar(&o.app, "app", "", "restrict table2/table3/fig8/stride/contention to one application (e.g. CG)")
	sanitize := flag.Bool("sanitize", false, "run every application under the apsan race detector")
	faultSpec := flag.String("fault", "", "fault plan spec (e.g. drop=0.05,dup=0.02,seed=42): run every application over a lossy wire with reliable delivery")
	faultSeed := flag.Int64("fault-seed", 0, "override the fault plan's seed")
	flag.BoolVar(&o.metrics, "metrics", false, "print each application's machine counter report")
	flag.StringVar(&o.metricsJSON, "metrics-json", "", "write per-application metrics as JSON to this file")
	flag.StringVar(&o.timeline, "timeline", "", "write a merged Perfetto timeline of the functional runs to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	apps.Sanitize = *sanitize
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fault-seed" {
			seedSet = true
		}
	})
	plan, err := faultPlanFromFlags(*faultSpec, *faultSeed, seedSet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apbench:", err)
		os.Exit(1)
	}
	apps.Fault = plan

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apbench:", err)
		os.Exit(1)
	}
	err = run(o)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "apbench:", err)
		os.Exit(1)
	}
}

// faultPlanFromFlags resolves -fault and -fault-seed into a plan.
// seedSet reports whether -fault-seed appeared on the command line at
// all (flag.Visit), so an explicit seed of 0 is honored and a seed
// without a plan is an error instead of being silently ignored.
func faultPlanFromFlags(spec string, seed int64, seedSet bool) (*fault.Plan, error) {
	if spec == "" {
		if seedSet {
			return nil, fmt.Errorf("-fault-seed requires -fault")
		}
		return nil, nil
	}
	plan, err := fault.Parse(spec)
	if err != nil {
		return nil, err
	}
	if seedSet {
		plan.Seed = seed
	}
	return plan, nil
}

// writeFile creates path, fills it with write and says so on stderr.
func writeFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s %s\n", what, path)
	return nil
}

// writeMetricsJSON writes each application's counter report, indented.
func writeMetricsJSON(w io.Writer, exps []*stats.Experiment) error {
	type appMetrics struct {
		App     string
		Metrics *machine.Metrics
	}
	var out []appMetrics
	for _, e := range exps {
		if e.Metrics != nil {
			out = append(out, appMetrics{App: e.App, Metrics: e.Metrics})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func hottestCount(r *mlsim.ContentionReport) int64 {
	if len(r.Hottest) == 0 {
		return 0
	}
	return r.Hottest[0].Messages
}

func run(o options) error {
	needApps := true
	switch o.experiment {
	case "specs", "params", "fig7":
		needApps = false
		for _, f := range []struct {
			name string
			set  bool
		}{{"-app", o.app != ""}, {"-metrics", o.metrics}, {"-metrics-json", o.metricsJSON != ""}, {"-timeline", o.timeline != ""}} {
			if f.set {
				return fmt.Errorf("%s: experiment %q runs no application", f.name, o.experiment)
			}
		}
	case "table2", "table3", "fig8", "stride", "contention", "all":
	default:
		return fmt.Errorf("unknown experiment %q", o.experiment)
	}

	obsWas, tlWas := apps.Observe, apps.TimelineFor
	defer func() { apps.Observe, apps.TimelineFor = obsWas, tlWas }()
	apps.Observe = o.metrics || o.metricsJSON != ""
	var parts []obs.Part
	if o.timeline != "" {
		apps.TimelineFor = func(name string) *obs.Timeline {
			tl := obs.NewTimeline()
			parts = append(parts, obs.Part{Label: name, TL: tl})
			return tl
		}
	}

	var exps []*stats.Experiment
	if needApps {
		catalog := stats.TestCatalog()
		if !o.quick {
			catalog = catalog[:0]
			for _, row := range apps.Catalog() {
				catalog = append(catalog, struct {
					Name  string
					Build apps.Builder
				}{row.Name, row.Build})
			}
		}
		for _, row := range catalog {
			if o.app != "" && !strings.EqualFold(row.Name, o.app) {
				continue
			}
			fmt.Fprintf(os.Stderr, "running %s...\n", row.Name)
			e, err := stats.RunExperiment(row.Name, row.Build)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
		if len(exps) == 0 {
			return fmt.Errorf("-app %q matches no application", o.app)
		}
	}

	w := os.Stdout
	show := func(name string) bool { return o.experiment == name || o.experiment == "all" }

	if show("specs") {
		s := machine.Table1()
		fmt.Fprintln(w, "Table 1: AP1000+ specifications")
		fmt.Fprintf(w, "  Processor              %s (%d MHz)\n", s.Processor, s.ClockMHz)
		fmt.Fprintf(w, "  Processor performance  %d MFLOPS\n", s.MFLOPSPerCell)
		fmt.Fprintf(w, "  Memory per cell        %v megabytes\n", s.MemoryPerCellMB)
		fmt.Fprintf(w, "  Cache per cell         %d kilobytes, %s\n", s.CacheKB, s.CachePolicy)
		fmt.Fprintf(w, "  System configuration   %d - %d cells\n", s.MinCells, s.MaxCells)
		fmt.Fprintf(w, "  System performance     %.1f - %.1f GFLOPS\n", s.PeakGFLOPSAtMin, s.PeakGFLOPSAtMax)
		fmt.Fprintln(w)
	}
	if show("params") {
		fmt.Fprintln(w, "Figure 6: MLSim parameter files")
		for _, p := range []*params.Params{params.AP1000(), params.AP1000Plus()} {
			if err := p.Format(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "differences (AP1000 -> AP1000+):")
		for _, d := range params.Diff(params.AP1000(), params.AP1000Plus()) {
			fmt.Fprintln(w, " ", d)
		}
		fmt.Fprintln(w)
	}
	if show("fig7") {
		fmt.Fprintln(w, "Figure 7: PUT communication model")
		for _, p := range []*params.Params{params.AP1000(), params.AP1000Plus()} {
			if err := mlsim.WriteTimeline(w, p, o.size, o.distance); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	if show("table2") {
		if err := stats.WriteTable2(w, exps); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if show("table3") {
		if err := stats.WriteTable3(w, exps); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if show("fig8") {
		if err := stats.WriteFig8(w, exps); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if show("stride") {
		var st, nost *stats.Experiment
		for _, e := range exps {
			switch e.App {
			case "TC st":
				st = e
			case "TC no st":
				nost = e
			}
		}
		if st != nil && nost != nil {
			fmt.Fprintln(w, "S5.4 stride ablation (TOMCATV on the AP1000+):")
			fmt.Fprintf(w, "  with stride    %12s\n", st.Plus.Elapsed)
			fmt.Fprintf(w, "  without stride %12s\n", nost.Plus.Elapsed)
			fmt.Fprintf(w, "  stride is %.0f%% faster (paper: ~50%%)\n",
				100*(float64(nost.Plus.Elapsed)/float64(st.Plus.Elapsed)-1))
			fmt.Fprintln(w)
		} else if o.experiment == "stride" {
			return fmt.Errorf("stride: -app %q leaves no TOMCATV pair (TC st and TC no st) to compare", o.app)
		}
	}
	if show("contention") {
		fmt.Fprintln(w, "T-net link contention (extension beyond the paper's contention-free MLSim):")
		for _, e := range exps {
			_, log, err := mlsim.RunWithLog(e.Trace, params.AP1000Plus())
			if err != nil {
				return err
			}
			rep, err := mlsim.AnalyzeContention(e.Trace, params.AP1000Plus(), log)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10s slowdown %.2fx, mean queueing delay %s, hottest link %v msgs\n",
				e.App, rep.Slowdown(), rep.MeanDelay, hottestCount(rep))
		}
		fmt.Fprintln(w)
	}
	if o.metrics {
		fmt.Fprintln(w, "Machine counter reports (functional runs):")
		if err := stats.WriteMetrics(w, exps); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if o.metricsJSON != "" {
		if err := writeFile(o.metricsJSON, "metrics", func(w io.Writer) error { return writeMetricsJSON(w, exps) }); err != nil {
			return err
		}
	}
	if o.timeline != "" {
		return writeFile(o.timeline, "timeline (load at ui.perfetto.dev)", func(w io.Writer) error {
			return obs.WriteMergedJSON(w, parts)
		})
	}
	return nil
}
