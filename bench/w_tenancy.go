package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"ap1000plus/internal/core"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/tenancy"
	"ap1000plus/internal/tnet"
	"ap1000plus/internal/topology"
)

// tenancyOpen is the one open-loop workload: the benchmark's own
// seeded Poisson generator submits small ring-PUT jobs to the gang
// scheduler of a 64-cell, 4-partition machine on a fixed schedule,
// whether or not earlier jobs have finished. A job's latency counts
// from the instant it was due, so a stall is charged to every job it
// delays, and the generator's own lateness is reported.
type tenancyOpen struct {
	cfg     *runCfg
	m       *machine.Machine
	sched   *tenancy.Scheduler
	bufs    []struct{ src, dst mem.Addr }
	dsts    [][]byte
	srcs    [][]byte
	rate    float64 // offered jobs per second
	refJobs int

	jobs       int
	results    []tenancy.Result
	due        []time.Time
	submitNs   []int64
	lateNs     []int64
	tnetBefore tnet.Stats
	before     counts
	work       counts
	inFlight   int64
	runOverUs  float64
}

const (
	tenancyPayload = 256
	tenancyPuts    = 4
)

func setupTenancyOpen(cfg *runCfg) (instance, error) {
	t := &tenancyOpen{cfg: cfg, rate: 4000, refJobs: 40000}
	w, h, parts := 8, 8, 4
	if cfg.short {
		w, h, parts = 4, 4, 2
	}
	drv := cfg.drv
	drv.begin("machine.new", -1, noSpan)
	m, err := machine.New(machine.Config{
		Width: w, Height: h, MemoryPerCell: 1 << 16, Partitions: parts, Observe: cfg.traced,
	})
	drv.end()
	if err != nil {
		return nil, err
	}
	t.m = m
	drv.begin("machine.alloc", -1, noSpan)
	rng := splitmix64(cfg.seed)
	for id := 0; id < m.Cells(); id++ {
		s, sb, err := m.Cell(topology.CellID(id)).AllocBytes("job-src", tenancyPayload)
		if err != nil {
			return nil, err
		}
		d, db, err := m.Cell(topology.CellID(id)).AllocBytes("job-dst", tenancyPayload)
		if err != nil {
			return nil, err
		}
		rng.fill(sb)
		t.bufs = append(t.bufs, struct{ src, dst mem.Addr }{s.Base(), d.Base()})
		t.srcs, t.dsts = append(t.srcs, sb), append(t.dsts, db)
	}
	drv.end()
	if cfg.traced {
		t.runOverUs = emptyRunUs(m)
	}
	if t.sched, err = tenancy.New(m); err != nil {
		return nil, err
	}
	// Three warm-up jobs per partition.
	for i := 0; i < 3*parts; i++ {
		tk, err := t.sched.Submit(tenancy.Job{Program: t.program})
		if err != nil {
			return nil, err
		}
		if r := tk.Wait(); r.Err != nil {
			return nil, r.Err
		}
	}
	return t, nil
}

// program is the job: four 256-byte PUTs around the granted
// partition's ring, fenced by the receive flag so the job's traffic is
// complete before it gives the partition back.
func (t *tenancyOpen) program(rank, size int, c *machine.Cell) error {
	comm := core.New(c)
	right := t.m.Partition(t.m.PartitionOf(c.ID())).Group().RingNext(c.ID())
	flag := c.Flags.Alloc()
	for i := 0; i < tenancyPuts; i++ {
		if err := comm.Put(core.Transfer{
			To: right, Remote: t.bufs[right].dst, Local: t.bufs[c.ID()].src,
			Size: tenancyPayload, RecvFlag: flag,
		}); err != nil {
			return err
		}
	}
	c.Flags.Wait(flag, tenancyPuts)
	return nil
}

func (t *tenancyOpen) timed(m *meter) (attempted, failed int64) {
	per, segs := t.cfg.split(t.refJobs, len(m.segs), 40)
	t.jobs = per * segs
	// The schedule: exponential gaps at the offered rate, fixed by the
	// seed before the clock starts.
	rng := splitmix64(t.cfg.seed ^ 0x7e4a)
	offsets := make([]time.Duration, t.jobs)
	var at float64
	for i := range offsets {
		at += -math.Log(1-rng.float()) / t.rate
		offsets[i] = time.Duration(at * float64(time.Second))
	}
	tickets := make([]*tenancy.Ticket, t.jobs)
	t.due = make([]time.Time, t.jobs)
	t.submitNs = make([]int64, t.jobs)
	t.lateNs = make([]int64, t.jobs)
	job := tenancy.Job{Program: t.program}
	t.tnetBefore = t.m.TNetStats()
	t.before = snapshot(t.m)
	t.inFlight = mem.PayloadsInFlight()
	drv := t.cfg.drv

	t.results = make([]tenancy.Result, t.jobs)
	start := time.Now()
	for s := 0; s < segs; s++ {
		m.seg(s)
		m.begin()
		drv.begin("tenancy.generate", s, noSpan)
		for i := s * per; i < (s+1)*per; i++ {
			due := start.Add(offsets[i])
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			t0 := time.Now()
			tk, err := t.sched.Submit(job)
			t.submitNs[i] = int64(time.Since(t0))
			t.due[i], t.lateNs[i] = due, int64(t0.Sub(due))
			if err != nil {
				failed++ // a rejected submit misses any latency limit
				continue
			}
			tickets[i] = tk
		}
		drv.end()
		if s == segs-1 {
			// The timed wall ends when the last job has completed, not
			// when it was submitted.
			for i, tk := range tickets {
				if tk != nil {
					t.results[i] = tk.Wait()
				}
			}
		}
		m.end(int64(per))
	}
	// Sojourn from the due time.
	for i, r := range t.results {
		switch {
		case tickets[i] == nil:
		case r.Err != nil:
			failed++
		default:
			m.lat(int64(r.Done.Sub(t.due[i])))
		}
	}
	t.work = snapshot(t.m).since(t.before)
	return int64(t.jobs), failed
}

func (t *tenancyOpen) check() (failed int64, sim simStats) {
	sim = newSimStats()
	if err := t.sched.Close(); err != nil {
		failed++
		fmt.Printf("# check: tenancy_open close: %v\n", err)
	}
	t.sched = nil
	failed += endChecks("tenancy_open", t.m, mem.PayloadsInFlight()-t.inFlight)
	// Every partition ran at least one job, so every cell's destination
	// holds its ring predecessor's source.
	digest := fnv.New64a()
	for id := range t.dsts {
		g := t.m.Partition(t.m.PartitionOf(topology.CellID(id))).Group()
		var left int
		for _, c := range g.Members() {
			if g.RingNext(c) == topology.CellID(id) {
				left = int(c)
			}
		}
		if string(t.dsts[id]) != string(t.srcs[left]) {
			failed++
			fmt.Printf("# check: tenancy_open cell %d destination differs from cell %d's source\n", id, left)
		}
		digest.Write(t.dsts[id])
	}
	// The last job on each partition raised four flags per cell.
	if got, want := snapshot(t.m).flagIncrements, int64(t.m.Cells()*tenancyPuts); got != want {
		failed++
		fmt.Printf("# check: tenancy_open flag increments %d, want %d\n", got, want)
	}
	tnetSim(sim.any, t.tnetBefore, t.m.TNetStats(), int64(t.jobs))
	sim.seeded["dst_digest"] = int64(digest.Sum64())
	return failed, sim
}

func (t *tenancyOpen) layers(out map[string]float64) {
	t.work.layers(int64(t.jobs), out)
	var queue, run []int64
	for _, r := range t.results {
		if r.Err == nil && !r.Done.IsZero() {
			queue = append(queue, int64(r.QueueLatency()))
			run = append(run, int64(r.RunLatency()))
		}
	}
	var submit float64
	for _, ns := range t.submitNs {
		submit += float64(ns)
	}
	out["tenancy.submit_ns"] = submit / float64(max(len(t.submitNs), 1))
	out["tenancy.queue_p50_us"] = percentileUs(queue, 50)
	out["tenancy.queue_tail_us"] = percentileUs(queue, 95)
	out["tenancy.run_p50_us"] = percentileUs(run, 50)
	out["tenancy.gen_late_p99_us"] = percentileUs(t.lateNs, 99)
	tot := t.cfg.rec.totals()
	spanMs(tot, "machine.new", "machine.new_ms", out)
	spanMs(tot, "machine.alloc", "machine.alloc_ms", out)
	out["machine.run_overhead_us"] = t.runOverUs
}

func (t *tenancyOpen) close() {
	if t.sched != nil {
		t.sched.Close()
	}
	t.m = nil
}
