package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"ap1000plus/internal/core"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/tnet"
	"ap1000plus/internal/topology"
)

// The four round trips of one rtt_mix round, in issue order.
const (
	rttPutX  = iota // PUT ping-pong with the cross-shard partner
	rttPutIn        // PUT ping-pong with the same-shard partner
	rttGetX         // 8-byte GET from the cross-shard partner
	rttFaddX        // FetchAdd on the cross-shard partner's counter
	rttKinds
)

// rttMix measures latency, not throughput: on an 8x8 machine with 61
// idle cells, cell 0 runs 8-byte round trips one at a time against a
// partner on another delivery shard (ring link + doorbell + park/wake)
// and a partner on its own shard (the inline path). Nothing overlaps,
// so there is nothing to batch.
type rttMix struct {
	cfg       *runCfg
	m         *machine.Machine
	xs, in    topology.CellID // cross-shard and same-shard partners
	refRounds int

	buf    map[topology.CellID]mem.Addr // 8-byte exchange word per active cell
	ctr    mem.Addr                     // FetchAdd target on xs
	words  map[topology.CellID][]byte
	deltas []int64 // seeded FetchAdd operands, cycled
	kind   [rttKinds][]int64
	tr     *track

	rounds     int
	per        int   // rounds per segment
	fetched    int64 // last value FetchAdd returned
	wantCtr    int64
	badFetch   int64
	tnetBefore tnet.Stats
	before     counts
	work       counts
	inFlight   int64
	runErrs    int64
}

func setupRTTMix(cfg *runCfg) (instance, error) {
	r := &rttMix{cfg: cfg, refRounds: 800000, xs: 37, in: 36,
		buf: map[topology.CellID]mem.Addr{}, words: map[topology.CellID][]byte{}}
	w, h := 8, 8
	if cfg.short {
		w, h, r.xs, r.in = 4, 4, 13, 12
	}
	drv := cfg.drv
	drv.begin("machine.new", -1, noSpan)
	m, err := machine.New(machine.Config{Width: w, Height: h, MemoryPerCell: 1 << 16, Observe: cfg.traced})
	drv.end()
	if err != nil {
		return nil, err
	}
	r.m = m
	drv.begin("machine.alloc", -1, noSpan)
	rng := splitmix64(cfg.seed)
	for _, id := range []topology.CellID{0, r.xs, r.in} {
		seg, b, err := m.Cell(id).AllocBytes("word", 16)
		if err != nil {
			return nil, err
		}
		rng.fill(b[:8])
		r.buf[id], r.words[id] = seg.Base(), b
	}
	r.ctr = r.buf[r.xs] + 8
	for i := 0; i < 64; i++ {
		r.deltas = append(r.deltas, int64(rng.next()%1000)+1)
	}
	drv.end()
	r.tr = cfg.rec.newTrack()
	// Three warm-up iterations of 64 rounds.
	for i := 0; i < 3; i++ {
		if err := r.run(64, -1, nil); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// run executes rounds rounds in one Machine.Run. Every active cell
// allocates the same four flags in the same order, so flag IDs agree
// across cells the way a compiled SPMD program's would.
func (r *rttMix) run(rounds, seg int, lat *[rttKinds][]int64) error {
	return r.m.Run(func(c *machine.Cell) error {
		id := c.ID()
		if id != 0 && id != r.xs && id != r.in {
			return nil
		}
		comm := core.New(c)
		ping, pongX, pongIn, got := c.Flags.Alloc(), c.Flags.Alloc(), c.Flags.Alloc(), c.Flags.Alloc()
		switch id {
		case r.xs: // responders: answer each ping with a PUT back to cell 0
			for k := 1; k <= rounds; k++ {
				c.Flags.Wait(ping, int64(k))
				if err := comm.Put(core.Transfer{To: 0, Remote: r.buf[0], Local: r.buf[id], Size: 8, RecvFlag: pongX}); err != nil {
					return err
				}
			}
			return nil
		case r.in:
			for k := 1; k <= rounds; k++ {
				c.Flags.Wait(ping, int64(k))
				if err := comm.Put(core.Transfer{To: 0, Remote: r.buf[0], Local: r.buf[id], Size: 8, RecvFlag: pongIn}); err != nil {
					return err
				}
			}
			return nil
		}
		pingTo := func(to topology.CellID) error {
			return comm.Put(core.Transfer{To: to, Remote: r.buf[to], Local: r.buf[0], Size: 8, RecvFlag: ping})
		}
		for k := 1; k <= rounds; k++ {
			// One round in sixty-four is recorded as spans: enough for a
			// readable trace, few enough to keep it loadable.
			tr := r.tr
			if k%64 != 1 {
				tr = nil
			}
			var t [rttKinds + 1]time.Time
			t[0] = time.Now()
			tr.begin("core.put_rtt_xshard", seg, noSpan)
			if err := pingTo(r.xs); err != nil {
				return err
			}
			c.Flags.Wait(pongX, int64(k))
			tr.end()
			t[1] = time.Now()
			tr.begin("core.put_rtt_inline", seg, noSpan)
			if err := pingTo(r.in); err != nil {
				return err
			}
			c.Flags.Wait(pongIn, int64(k))
			tr.end()
			t[2] = time.Now()
			tr.begin("core.get_rtt_xshard", seg, noSpan)
			if err := comm.Get(core.Transfer{To: r.xs, Remote: r.buf[r.xs], Local: r.buf[0], Size: 8, RecvFlag: got}); err != nil {
				return err
			}
			c.Flags.Wait(got, int64(k))
			tr.end()
			t[3] = time.Now()
			tr.begin("machine.fetchadd_rtt_xshard", seg, noSpan)
			old, err := c.FetchAdd(r.xs, r.ctr, r.deltas[k%len(r.deltas)])
			if err != nil {
				return err
			}
			tr.end()
			t[4] = time.Now()
			r.fetched = old
			if lat != nil {
				for i := 0; i < rttKinds; i++ {
					lat[i][k-1] = int64(t[i+1].Sub(t[i]))
				}
			}
		}
		return nil
	})
}

func (r *rttMix) timed(m *meter) (attempted, failed int64) {
	per, segs := r.cfg.split(r.refRounds, len(m.segs), 32)
	r.per = per
	var lat [rttKinds][]int64
	for i := range lat {
		lat[i] = make([]int64, per)
	}
	r.tnetBefore = r.m.TNetStats()
	r.before = snapshot(r.m)
	r.inFlight = mem.PayloadsInFlight()
	ctr0, _ := r.m.Cell(r.xs).Mem.LoadWord8(r.ctr)
	r.wantCtr = int64(ctr0)
	for s := 0; s < segs; s++ {
		m.seg(s)
		m.begin()
		err := r.run(per, s, &lat)
		m.end(int64(per) * rttKinds)
		if err != nil {
			r.runErrs++
			fmt.Printf("# check: rtt_mix: %v\n", err)
		}
		var sum int64
		for k := 1; k <= per; k++ {
			sum += r.deltas[k%len(r.deltas)]
		}
		r.wantCtr += sum
		// The last FetchAdd of the segment returned the counter as it
		// stood before its own delta.
		if r.fetched != r.wantCtr-r.deltas[per%len(r.deltas)] {
			r.badFetch++
		}
		for i := range lat {
			m.lat(lat[i]...)
			if r.cfg.traced {
				r.kind[i] = append(r.kind[i], lat[i]...)
			}
		}
	}
	r.rounds = per * segs
	r.work = snapshot(r.m).since(r.before)
	ops := int64(r.rounds) * rttKinds
	return ops, (r.runErrs + r.badFetch) * int64(per) * rttKinds
}

func (r *rttMix) check() (failed int64, sim simStats) {
	sim = newSimStats()
	failed = endChecks("rtt_mix", r.m, mem.PayloadsInFlight()-r.inFlight)
	got, err := r.m.Cell(r.xs).Mem.LoadWord8(r.ctr)
	if err != nil || int64(got) != r.wantCtr {
		failed++
		fmt.Printf("# check: rtt_mix counter %d, want %d (%v)\n", int64(got), r.wantCtr, err)
	}
	// Cell 0 ends holding the last word it was sent or fetched: the
	// cross-shard partner's (the GET is the round's last data movement).
	if string(r.words[0][:8]) != string(r.words[r.xs][:8]) {
		failed++
		fmt.Println("# check: rtt_mix cell 0 does not hold its partner's word")
	}
	// The flag file restarts per job: the last segment's job raised five
	// flags per round (two pings, two pongs, one GET reply).
	if n := snapshot(r.m).flagIncrements; r.per > 0 {
		sim.any["flag_increments_per_round"] = n / int64(r.per)
		sim.any["flag_increments_rem"] = n % int64(r.per)
	}
	tnetSim(sim.any, r.tnetBefore, r.m.TNetStats(), int64(r.rounds))
	sim.seeded["word"] = int64(binary.LittleEndian.Uint64(r.words[0][:8]))
	return failed, sim
}

func (r *rttMix) layers(out map[string]float64) {
	r.work.layers(int64(r.rounds)*rttKinds, out)
	out["core.put_rtt_xshard_p50_us"] = percentileUs(r.kind[rttPutX], 50)
	out["core.put_rtt_xshard_p99_us"] = percentileUs(r.kind[rttPutX], 99)
	out["core.put_rtt_inline_p50_us"] = percentileUs(r.kind[rttPutIn], 50)
	out["core.get_rtt_xshard_p50_us"] = percentileUs(r.kind[rttGetX], 50)
	out["machine.fetchadd_rtt_xshard_p50_us"] = percentileUs(r.kind[rttFaddX], 50)
	tot := r.cfg.rec.totals()
	spanMs(tot, "machine.new", "machine.new_ms", out)
	spanMs(tot, "machine.alloc", "machine.alloc_ms", out)
	out["machine.run_overhead_us"] = emptyRunUs(r.m)
}

func (r *rttMix) close() { r.m = nil }
