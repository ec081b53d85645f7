package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"ap1000plus/internal/apps"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/mlsim"
	"ap1000plus/internal/params"
	"ap1000plus/internal/stats"
	"ap1000plus/internal/trace"
)

// appSpec is one application of a pass: how to build it, and the
// metric suffix its per-layer numbers carry.
type appSpec struct {
	name string // the apps package's name for the run ("TC no st")
	key  string // metric-name form ("tcnost")
	// runSpan and replaySpan are the span names, built once by withSpans
	// so that the timed loop does not concatenate strings.
	runSpan, replaySpan string
	build               func(cfg *runCfg) (*apps.Instance, error)
	// ops counts the timed operations of a finished run.
	ops func(in *apps.Instance) int64
	// result, when set, fills the instance's result snapshot after
	// Verify (PGAS kernels); digested into the seeded goldens.
	result *[]int64
}

// withSpans fills in the specs' span names.
func withSpans(specs []*appSpec) []*appSpec {
	for _, s := range specs {
		s.runSpan, s.replaySpan = "apps."+s.key+".run", "mlsim."+s.key+".replay"
	}
	return specs
}

func traceEvents(in *apps.Instance) int64 { return int64(in.Machine.Trace().Events()) }

// paperSpecs are the paper's own programs at Table 2 sizes (laptop
// sizes in the go-test pass).
func paperSpecs(withSCG bool) []*appSpec {
	pick := func(paper, test func() (*apps.Instance, error)) func(*runCfg) (*apps.Instance, error) {
		return func(cfg *runCfg) (*apps.Instance, error) {
			if cfg.short {
				return test()
			}
			return paper()
		}
	}
	specs := []*appSpec{
		{name: "CG", key: "cg", ops: traceEvents, build: pick(
			func() (*apps.Instance, error) { return apps.NewCG(apps.PaperCG()) },
			func() (*apps.Instance, error) { return apps.NewCG(apps.TestCG()) })},
		{name: "TC st", key: "tcst", ops: traceEvents, build: pick(
			func() (*apps.Instance, error) { return apps.NewTomcatv(apps.PaperTomcatv(true)) },
			func() (*apps.Instance, error) { return apps.NewTomcatv(apps.TestTomcatv(true)) })},
		{name: "TC no st", key: "tcnost", ops: traceEvents, build: pick(
			func() (*apps.Instance, error) { return apps.NewTomcatv(apps.PaperTomcatv(false)) },
			func() (*apps.Instance, error) { return apps.NewTomcatv(apps.TestTomcatv(false)) })},
		{name: "MatMul", key: "matmul", ops: traceEvents, build: pick(
			func() (*apps.Instance, error) { return apps.NewMatMul(apps.PaperMatMul()) },
			func() (*apps.Instance, error) { return apps.NewMatMul(apps.TestMatMul()) })},
	}
	if withSCG {
		specs = append(specs, &appSpec{name: "SCG", key: "scg", ops: traceEvents, build: pick(
			func() (*apps.Instance, error) { return apps.NewSCG(apps.PaperSCG()) },
			func() (*apps.Instance, error) { return apps.NewSCG(apps.TestSCG()) })})
	}
	return withSpans(specs)
}

// baleSpecs are the bale histogram and index-gather kernels in
// aggregated mode: 64 cells, table 64x61, 8192 fine-grained operations
// per cell, index streams drawn from the run's seed.
func baleSpecs(cfg *runCfg) []*appSpec {
	cells, ops := 64, 8192
	if cfg.short {
		cells, ops = 4, 256
	}
	fine := func(*apps.Instance) int64 { return int64(cells * ops) }
	histo, ig := new([]int64), new([]int64)
	return withSpans([]*appSpec{
		{name: "PGAS-HG agg", key: "histo", ops: fine, result: histo,
			build: func(cfg *runCfg) (*apps.Instance, error) {
				return apps.NewPGASHisto(apps.PGASHistoConfig{
					Cells: cells, Table: int64(cells) * 61, OpsPerCell: ops,
					Mode: apps.PGASAggregated, Seed: cfg.seed, Snapshot: histo,
				})
			}},
		{name: "PGAS-IG agg", key: "ig", ops: fine, result: ig,
			build: func(cfg *runCfg) (*apps.Instance, error) {
				return apps.NewPGASIG(apps.PGASIGConfig{
					Cells: cells, Table: int64(cells) * 61, OpsPerCell: ops,
					Mode: apps.PGASAggregated, Seed: cfg.seed ^ 0x5bd1e995, Snapshot: ig,
				})
			}},
	})
}

// appsPass is the shared body of paper_apps and bale_agg: every pass
// builds each application fresh (untimed), runs its SPMD program with
// Machine.Run (timed; one latency sample per run, or per cell), then
// verifies the numerics and the end-of-run invariants (untimed).
type appsPass struct {
	name      string
	cfg       *runCfg
	specs     []*appSpec
	refPasses int
	// perCell samples one cell's program time instead of the whole run.
	perCell bool

	work   counts
	ops    int64
	sim    simStats
	failed int64
	runNs  map[string][]int64 // per app key: Machine.Run wall times
}

// one builds, runs and verifies a single application. When m is nil
// nothing is charged (warm-up).
func (a *appsPass) one(spec *appSpec, pass int, m *meter) error {
	drv := a.cfg.drv
	apps.Observe = a.cfg.traced
	// Collect the previous instance before building the next, so that
	// peak RSS is one instance's footprint and not however many dead
	// ones the collector had not reached yet.
	runtime.GC()
	drv.begin("apps.build", pass, noSpan)
	in, err := spec.build(a.cfg)
	drv.end()
	if err != nil {
		return err
	}
	cellNs := make([]int64, in.Machine.Cells())
	program := func(c *machine.Cell) error {
		t0 := time.Now()
		err := in.Program(in.RTs[c.ID()])
		cellNs[c.ID()] = int64(time.Since(t0))
		return err
	}
	inFlight := mem.PayloadsInFlight()
	drv.begin(spec.runSpan, pass, noSpan)
	if m != nil {
		m.begin()
	}
	t0 := time.Now()
	err = in.Machine.Run(program)
	runNs := int64(time.Since(t0))
	ops := spec.ops(in)
	if m != nil {
		m.end(ops)
	}
	drv.end()
	if m == nil {
		return err
	}
	a.ops += ops
	a.runNs[spec.key] = append(a.runNs[spec.key], runNs)
	if a.perCell {
		m.lat(cellNs...)
	} else {
		m.lat(runNs)
	}
	if err != nil {
		a.failed += ops
		fmt.Printf("# check: %s %s: %v\n", a.name, spec.name, err)
		return nil
	}
	drv.begin("apps.verify", pass, noSpan)
	verr := in.Verify()
	if verr == nil {
		verr = in.Machine.Trace().Validate()
	}
	drv.end()
	if verr != nil {
		a.failed += ops
		fmt.Printf("# check: %s %s: verification: %v\n", a.name, spec.name, verr)
	}
	// SEND and broadcast payloads stay parked by design; record pins
	// how many.
	parked := mem.PayloadsInFlight() - inFlight
	a.failed += endChecks(a.name+" "+spec.name, in.Machine, 0)
	a.work.add(snapshot(in.Machine))
	a.record(spec, in, parked)
	return nil
}

// record pins the run's simulated statistics. Every pass must
// reproduce the first pass's numbers exactly; a pass that does not is
// reported under <app>.unstable.
func (a *appsPass) record(spec *appSpec, in *apps.Instance, parked int64) {
	cur := map[string]int64{}
	tnetSim(cur, tnetZero, in.Machine.TNetStats(), 1)
	delete(cur, "tnet.rem")
	cur["trace_events"] = int64(in.Machine.Trace().Events())
	cur["flag_increments"] = snapshot(in.Machine).flagIncrements
	cur["hw_barriers"] = in.Machine.Barriers()
	cur["payloads_parked"] = parked
	if spec.result != nil {
		cur["result_digest"] = digestWords(*spec.result)
	}
	dst := a.sim.any
	if spec.result != nil {
		dst = a.sim.seeded // index streams come from the seed
	}
	unstable := spec.key + ".unstable"
	if _, seen := dst[unstable]; !seen {
		dst[unstable] = 0
		for k, v := range cur {
			dst[spec.key+"."+k] = v
		}
		return
	}
	for k, v := range cur {
		if dst[spec.key+"."+k] != v {
			dst[unstable]++
		}
	}
}

func (a *appsPass) timed(m *meter) (attempted, failed int64) {
	per, segs := a.cfg.split(a.refPasses, len(m.segs), 1)
	rng := splitmix64(a.cfg.seed)
	for s := 0; s < segs; s++ {
		m.seg(s)
		for k := 0; k < per; k++ {
			// The seed fixes the order the applications of a pass run in.
			order := permutation(&rng, len(a.specs))
			for _, i := range order {
				if err := a.one(a.specs[i], s*per+k, m); err != nil {
					a.failed++
					fmt.Printf("# check: %s %s: build: %v\n", a.name, a.specs[i].name, err)
				}
			}
		}
	}
	return a.ops, a.failed
}

func (a *appsPass) check() (int64, simStats) { return 0, a.sim }

func (a *appsPass) layers(out map[string]float64) {
	a.work.layers(a.ops, out)
	tot := a.cfg.rec.totals()
	spanMs(tot, "apps.build", "apps.build_ms", out)
	spanMs(tot, "apps.verify", "apps.verify_ms", out)
	for key, ns := range a.runNs {
		out["apps."+key+"_run_ms"] = medianInt64(ns) / 1e6
	}
}

func (a *appsPass) close() { apps.Observe = false }

func newAppsPass(name string, cfg *runCfg, specs []*appSpec, refPasses, warmPasses int, perCell bool) (instance, error) {
	a := &appsPass{
		name: name, cfg: cfg, specs: specs, refPasses: refPasses, perCell: perCell,
		sim: newSimStats(), runNs: map[string][]int64{},
	}
	// Set-up is the warm-up alone: there is no machine to keep, every
	// pass builds its own.
	for i := 0; i < warmPasses; i++ {
		for _, spec := range specs {
			if err := a.one(spec, -1, nil); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

func setupPaperApps(cfg *runCfg) (instance, error) {
	return newAppsPass("paper_apps", cfg, paperSpecs(false), 10, 1, false)
}

func setupBaleAgg(cfg *runCfg) (instance, error) {
	return newAppsPass("bale_agg", cfg, baleSpecs(cfg), 64, 3, true)
}

func permutation(rng *splitmix64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// mlsimReplay: set-up runs CG, TC st, TC no st, MatMul and SCG once on
// the functional machine and round-trips each trace through the trace
// codec; the timed phase replays every trace under the three machine
// models. Single-threaded discrete-event simulation: nothing in
// machine or tnet is on its path.
type mlsimReplay struct {
	cfg     *runCfg
	specs   []*appSpec
	traces  []*trace.TraceSet
	models  []*params.Params
	results map[string]*mlsim.Result // "<key>/<model>" of the last pass
	sim     simStats
	failed  int64
	ops     int64
	mevPerS map[string][]float64
	encMBs  []float64
	decMBs  []float64
}

func setupMLSimReplay(cfg *runCfg) (instance, error) {
	r := &mlsimReplay{
		cfg: cfg, specs: paperSpecs(true), sim: newSimStats(),
		models:  []*params.Params{params.AP1000(), params.AP1000Plus(), params.AP1000x8()},
		results: map[string]*mlsim.Result{}, mevPerS: map[string][]float64{},
	}
	drv := cfg.drv
	apps.Observe = false
	for _, spec := range r.specs {
		runtime.GC() // as in appsPass.one: one instance's footprint at a time
		drv.begin("apps.build", -1, noSpan)
		in, err := spec.build(cfg)
		drv.end()
		if err != nil {
			return nil, err
		}
		drv.begin(spec.runSpan, -1, noSpan)
		err = in.Machine.Run(func(c *machine.Cell) error { return in.Program(in.RTs[c.ID()]) })
		drv.end()
		if err != nil {
			return nil, err
		}
		drv.begin("apps.verify", -1, noSpan)
		err = in.Verify()
		drv.end()
		if err != nil {
			return nil, fmt.Errorf("%s: verification: %w", spec.name, err)
		}
		if endChecks("mlsim_replay "+spec.name, in.Machine, 0) != 0 {
			return nil, fmt.Errorf("%s: drain invariant violated", spec.name)
		}
		// Round trip through the codec: MLSim replays what a trace file
		// would hold, and the codec's speed is part of set-up.
		ts := in.Machine.Trace()
		var buf bytes.Buffer
		drv.begin("trace.encode", -1, noSpan)
		t0 := time.Now()
		if err := trace.Write(&buf, ts); err != nil {
			return nil, err
		}
		enc := time.Since(t0)
		drv.end()
		size := float64(buf.Len())
		drv.begin("trace.decode", -1, noSpan)
		t0 = time.Now()
		back, err := trace.Read(&buf)
		dec := time.Since(t0)
		drv.end()
		if err != nil {
			return nil, err
		}
		if back.Events() != ts.Events() {
			return nil, fmt.Errorf("%s: codec round trip lost events: %d != %d", spec.name, back.Events(), ts.Events())
		}
		r.encMBs = append(r.encMBs, size/1e6/enc.Seconds())
		r.decMBs = append(r.decMBs, size/1e6/dec.Seconds())
		r.traces = append(r.traces, back)
		r.sim.any[spec.key+".trace_events"] = int64(back.Events())
		r.sim.any[spec.key+".trace_bytes"] = int64(size)
	}
	// Three warm-up replays of the first trace.
	for i := 0; i < 3; i++ {
		if _, err := mlsim.Run(r.traces[0], r.models[i%len(r.models)]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *mlsimReplay) timed(m *meter) (attempted, failed int64) {
	per, segs := r.cfg.split(16, len(m.segs), 1)
	rng := splitmix64(r.cfg.seed)
	drv := r.cfg.drv
	for s := 0; s < segs; s++ {
		m.seg(s)
		for k := 0; k < per; k++ {
			order := permutation(&rng, len(r.traces)*len(r.models))
			for _, i := range order {
				ti, mi := i/len(r.models), i%len(r.models)
				spec, ts, model := r.specs[ti], r.traces[ti], r.models[mi]
				events := int64(ts.Events())
				drv.begin(spec.replaySpan, s*per+k, noSpan)
				m.begin()
				t0 := time.Now()
				res, err := mlsim.Run(ts, model)
				d := time.Since(t0)
				m.end(events)
				drv.end()
				m.lat(int64(d))
				r.ops += events
				if err != nil {
					r.failed += events
					fmt.Printf("# check: mlsim_replay %s/%s: %v\n", spec.name, model.Name, err)
					continue
				}
				r.mevPerS[spec.key] = append(r.mevPerS[spec.key], float64(events)/1e6/d.Seconds())
				r.record(spec.key+"/"+model.Name, res)
			}
		}
	}
	return r.ops, r.failed
}

// record pins one replay's simulated results: elapsed time, traffic
// and the Figure 8 breakdown, all in integer nanoseconds or counts.
// Later passes must reproduce the first.
func (r *mlsimReplay) record(key string, res *mlsim.Result) {
	var exec, rts, ovh, idle int64
	for _, pe := range res.PE {
		exec += int64(pe.Exec)
		rts += int64(pe.RTS)
		ovh += int64(pe.Overhead)
		idle += int64(pe.Idle)
	}
	cur := map[string]int64{
		"elapsed_ns": int64(res.Elapsed), "messages": res.Messages, "bytes": res.Bytes,
		"exec_ns": exec, "rts_ns": rts, "overhead_ns": ovh, "idle_ns": idle,
	}
	if _, seen := r.results[key]; !seen {
		for k, v := range cur {
			r.sim.any[key+"."+k] = v
		}
		r.sim.any[key+".unstable"] = 0
	} else {
		for k, v := range cur {
			if r.sim.any[key+"."+k] != v {
				r.sim.any[key+".unstable"]++
			}
		}
	}
	r.results[key] = res
}

func (r *mlsimReplay) check() (int64, simStats) { return 0, r.sim }

func (r *mlsimReplay) layers(out map[string]float64) {
	tot := r.cfg.rec.totals()
	spanMs(tot, "apps.build", "apps.build_ms", out)
	spanMs(tot, "apps.verify", "apps.verify_ms", out)
	for _, key := range []string{"cg", "tcnost", "matmul", "scg"} {
		out["mlsim."+key+"_mev_per_s"] = median(r.mevPerS[key])
	}
	out["trace.encode_mb_per_s"] = median(r.encMBs)
	out["trace.decode_mb_per_s"] = median(r.decMBs)
	// Accuracy against the paper's Table 2, both speed-up columns.
	var sum float64
	var n int
	for _, spec := range r.specs {
		base, plus, x8 := r.results[spec.key+"/AP1000"], r.results[spec.key+"/AP1000+"], r.results[spec.key+"/AP1000x8"]
		paper, ok := stats.PaperTable2[spec.name]
		if base == nil || plus == nil || x8 == nil || !ok {
			continue
		}
		sum += math.Abs(plus.SpeedupVs(base)-paper[0]) / paper[0]
		sum += math.Abs(x8.SpeedupVs(base)-paper[1]) / paper[1]
		n += 2
	}
	if n > 0 {
		out["stats.table2_mae_pct"] = 100 * sum / float64(n)
	}
}

func (r *mlsimReplay) close() { r.traces = nil }
