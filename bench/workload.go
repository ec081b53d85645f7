package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ap1000plus/internal/machine"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// tail is the percentile of the run's pooled latency sample that
	// lat_tail_us reports for this workload: the highest of p99, p95, p90
	// and p75 that has at least ten samples beyond it and repeats from run
	// to run on a host whose speed drifts; put_bulk and paper_apps sit
	// elsewhere on the ladder for the reasons in README, "Workloads".
	tail int
	// segs is how many diagnostic segments the timed phase is cut into.
	segs int
	// setup builds the workload: machines or instances, allocations,
	// generated inputs and three warm-up iterations. Its wall time is
	// setup_s.
	setup func(cfg *runCfg) (instance, error)
}

// instance is a set-up workload, ready to be measured once.
type instance interface {
	// timed runs the measured phase against m and returns how many
	// operations it attempted and how many of them failed.
	timed(m *meter) (attempted, failed int64)
	// check runs the end-of-run invariants (drain invariant, payloads
	// in flight, flag counts, analytic verification) and returns the
	// failures it found plus the simulated statistics the goldens pin.
	check() (failed int64, sim simStats)
	// layers adds the workload's own per-layer metrics (traced pass).
	layers(out map[string]float64)
	// close releases the instance (machines closed, memory dropped).
	close()
}

// simStats are simulated statistics: numbers a host-speed change must
// leave identical. any holds the seed-independent ones, compared on
// every run; seeded holds those that depend on the generated inputs,
// compared when the goldens carry the seed.
type simStats struct {
	any    map[string]int64
	seeded map[string]int64
}

func newSimStats() simStats {
	return simStats{any: map[string]int64{}, seeded: map[string]int64{}}
}

// counts is the exact, seed-fixed work a run's machines did, summed
// from Machine.Metrics snapshots; the per-op count metrics and the
// waiting metrics derive from it.
type counts struct {
	msgs, bytes, hops          int64
	spills, interrupts         int64
	userMaxDepth               int64
	recvDMAs, atomics          int64
	flagWaits, flagWaitNs      int64
	barrierStallNs             int64
	bnetMsgs                   int64
	aggPushes, aggPackets      int64
	aggAdvances                int64
	flagIncrements, hwBarriers int64
}

// snapshot reads a machine's cumulative counters.
func snapshot(m *machine.Machine) counts {
	mt := m.Metrics()
	t := mt.Totals()
	c := counts{
		msgs: mt.TNet.Messages, bytes: mt.TNet.Bytes, hops: mt.TNet.HopsTotal,
		recvDMAs: t.RecvDMAs, atomics: t.Atomics,
		flagWaits: t.FlagWaits, flagWaitNs: t.FlagWaitNanos,
		barrierStallNs: t.BarrierStallNanos,
		bnetMsgs:       mt.BNet.Broadcasts + mt.BNet.Scatters + mt.BNet.Gathers,
		aggPushes:      t.AggPushes, aggPackets: t.AggPacketsSent, aggAdvances: t.AggAdvances,
		hwBarriers: mt.HWBarriers,
	}
	for i := range mt.Cells {
		q := mt.Cells[i].Queues
		for _, s := range []int64{q.UserSend.Spills, q.SysSend.Spills, q.RemoteAccess.Spills, q.GetReply.Spills, q.RemoteLoadReply.Spills} {
			c.spills += s
		}
		for _, s := range []int64{q.UserSend.Interrupts, q.SysSend.Interrupts, q.RemoteAccess.Interrupts, q.GetReply.Interrupts, q.RemoteLoadReply.Interrupts} {
			c.interrupts += s
		}
		c.userMaxDepth = max(c.userMaxDepth, int64(q.UserSend.MaxDepth))
		c.flagIncrements += mt.Cells[i].FlagIncrements
	}
	return c
}

// add accumulates b into a (max for the high-water mark).
func (a *counts) add(b counts) {
	a.msgs += b.msgs
	a.bytes += b.bytes
	a.hops += b.hops
	a.spills += b.spills
	a.interrupts += b.interrupts
	a.userMaxDepth = max(a.userMaxDepth, b.userMaxDepth)
	a.recvDMAs += b.recvDMAs
	a.atomics += b.atomics
	a.flagWaits += b.flagWaits
	a.flagWaitNs += b.flagWaitNs
	a.barrierStallNs += b.barrierStallNs
	a.bnetMsgs += b.bnetMsgs
	a.aggPushes += b.aggPushes
	a.aggPackets += b.aggPackets
	a.aggAdvances += b.aggAdvances
	a.flagIncrements += b.flagIncrements
	a.hwBarriers += b.hwBarriers
}

// since returns the work done between an earlier snapshot and a of the
// same machine. Flag increments restart with every job, so they are
// not differenced.
func (a counts) since(b counts) counts {
	d := a
	d.msgs -= b.msgs
	d.bytes -= b.bytes
	d.hops -= b.hops
	d.spills -= b.spills
	d.interrupts -= b.interrupts
	d.recvDMAs -= b.recvDMAs
	d.atomics -= b.atomics
	d.flagWaits -= b.flagWaits
	d.flagWaitNs -= b.flagWaitNs
	d.barrierStallNs -= b.barrierStallNs
	d.bnetMsgs -= b.bnetMsgs
	d.aggPushes -= b.aggPushes
	d.aggPackets -= b.aggPackets
	d.aggAdvances -= b.aggAdvances
	d.hwBarriers -= b.hwBarriers
	return d
}

// layers renders the counts as the per-op count and waiting metrics.
func (c counts) layers(ops int64, out map[string]float64) {
	per := func(n int64) float64 { return float64(n) / float64(max(ops, 1)) }
	out["tnet.msgs_per_op"] = per(c.msgs)
	out["tnet.bytes_per_op"] = per(c.bytes)
	if c.msgs > 0 {
		out["tnet.hops_per_msg"] = float64(c.hops) / float64(c.msgs)
	}
	out["msc.spills_per_kop"] = 1000 * per(c.spills)
	out["msc.interrupts_per_kop"] = 1000 * per(c.interrupts)
	out["msc.user_max_depth"] = float64(c.userMaxDepth)
	out["machine.recv_dmas_per_op"] = per(c.recvDMAs)
	out["machine.atomics_per_op"] = per(c.atomics)
	out["mc.flag_waits_per_op"] = per(c.flagWaits)
	out["bnet.msgs_per_op"] = per(c.bnetMsgs)
	if c.aggPackets > 0 {
		out["pgas.agg_pushes_per_packet"] = float64(c.aggPushes) / float64(c.aggPackets)
	}
	out["pgas.agg_advances_per_kop"] = 1000 * per(c.aggAdvances)
	out["mc.flag_wait_ns_per_op"] = per(c.flagWaitNs)
	out["barrier.stall_ns_per_op"] = per(c.barrierStallNs)
}

// endChecks are the invariants every workload ends a machine's use
// with: the reliable-delivery drain invariant holds and no pooled
// payload buffer captured during the run is still unreleased. leaked is
// the growth of mem.PayloadsInFlight over the run; workloads whose
// programs SEND or broadcast pass 0 and pin the count in their goldens
// instead, because ring buffers and inboxes keep their payloads for the
// garbage collector by design. Each violated invariant is one failure,
// reported on standard output.
func endChecks(label string, m *machine.Machine, leaked int64) (failed int64) {
	if err := m.DrainInvariantErr(); err != nil {
		failed++
		fmt.Printf("# check: %s drain invariant: %v\n", label, err)
	}
	if leaked != 0 {
		failed++
		fmt.Printf("# check: %s %d payloads still in flight\n", label, leaked)
	}
	return failed
}

// outcome is one pass (set-up, timed phase, checks) over a workload.
type outcome struct {
	setupS    []float64 // one per set-up repetition
	m         measured
	attempted int64
	failed    int64
	sim       simStats
	layers    map[string]float64
}

// setupReps is how many times a run sets the workload up; setup_s is
// the median and the last instance is the one measured.
const setupReps = 3

// runPass sets the workload up reps times, measures the last instance
// and checks it.
func runPass(w *workload, cfg *runCfg, reps int) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var in instance
	for r := 0; r < reps; r++ {
		if in != nil {
			in.close()
			in = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if in, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	// Start the timed phase from a collected heap: what set-up left
	// behind must not decide when the first GC cycle of the measurement
	// runs.
	runtime.GC()
	m := newMeter(w.segs)
	out.attempted, out.failed = in.timed(m)
	out.m = m.summarize(w.tail)
	failed, sim := in.check()
	out.failed += failed
	out.sim = sim
	if cfg.traced {
		in.layers(out.layers)
	}
	in.close()
	debug.FreeOSMemory()
	return out, nil
}

// sortedKeys lists a map's keys in order (stable output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
