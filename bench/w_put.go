package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"ap1000plus/internal/core"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/tnet"
	"ap1000plus/internal/topology"
)

// neighbourPut is the shared body of put_stream and put_bulk: every
// cell PUTs a burst to its right neighbour (cell id+1, which the
// id-mod-shards placement always puts on another delivery shard) with
// a receive flag, then waits for its own flag to reach the burst size.
// One machine is built in set-up and reused; an iteration is one
// Machine.Run.
type neighbourPut struct {
	name string
	cfg  *runCfg
	m    *machine.Machine
	np   int
	// refIters is the 10 s reference iteration count.
	refIters int
	puts     int // PUTs (= flag increments) per cell per iteration
	// payload is the contiguous PUT size; strided of the puts are
	// every-other-word stride PUTs of the same payload instead.
	payload int64
	strided int
	// slot is the distance between the destinations of successive PUTs:
	// 0 when every PUT lands on the same bytes (put_stream), the payload
	// size when each has its own slot (put_bulk).
	slot int64
	// Span names, built once: a name concatenated at the call site would
	// allocate in the timed loop even with tracing off.
	burstSpan, iterSpan string

	src, dst   []*mem.Segment
	want       [][]byte // expected dst contents per cell
	lat        [][]int64
	tracks     []*track
	badFlags   atomic.Int64
	iters      int
	tnetBefore tnet.Stats
	before     counts
	work       counts
	ops        int64
	runErrs    int64
	inFlight   int64 // mem.PayloadsInFlight before the timed phase
}

func (p *neighbourPut) build(width, height int, memPerCell, srcBytes, dstBytes int64) error {
	cells := width * height
	p.burstSpan, p.iterSpan = p.name+".burst", p.name+".iteration"
	drv := p.cfg.drv
	drv.begin("machine.new", -1, noSpan)
	m, err := machine.New(machine.Config{
		Width: width, Height: height, MemoryPerCell: memPerCell, Observe: p.cfg.traced,
	})
	drv.end()
	if err != nil {
		return err
	}
	p.m, p.np = m, cells
	drv.begin("machine.alloc", -1, noSpan)
	defer drv.end()
	rng := splitmix64(p.cfg.seed)
	for id := 0; id < cells; id++ {
		s, sb, err := m.Cell(topology.CellID(id)).AllocBytes("src", srcBytes)
		if err != nil {
			return err
		}
		d, _, err := m.Cell(topology.CellID(id)).AllocBytes("dst", dstBytes)
		if err != nil {
			return err
		}
		rng.fill(sb)
		p.src, p.dst = append(p.src, s), append(p.dst, d)
	}
	p.lat = make([][]int64, cells)
	p.tracks = make([]*track, cells)
	for id := range p.tracks {
		p.tracks[id] = p.cfg.rec.newTrack()
	}
	return nil
}

// iteration runs one Machine.Run of the burst program: every cell
// issues its PUTs to the right neighbour's destination, then waits for
// its own flag. slot indexes the per-cell latency buffer.
func (p *neighbourPut) iteration(it, slot int, parent spanID) error {
	everyOther := mem.Stride{ItemSize: 8, Count: p.payload / 8, Skip: 8}
	return p.m.Run(func(c *machine.Cell) error {
		id := int(c.ID())
		right := (id + 1) % p.np
		to := topology.CellID(right)
		comm := core.New(c)
		flag := c.Flags.Alloc()
		tr := p.tracks[id]
		t0 := time.Now()
		tr.begin(p.burstSpan, it, parent)
		tr.begin("core.put_issue", it, noSpan)
		var err error
		for k := 0; k < p.puts && err == nil; k++ {
			remote := p.dst[right].Base() + mem.Addr(int64(k)*p.slot)
			if k < p.puts-p.strided {
				err = comm.Put(core.Transfer{To: to, Remote: remote, Local: p.src[id].Base(), Size: p.payload, RecvFlag: flag})
			} else {
				err = comm.PutStride(to, remote, p.src[id].Base(), mc.NoFlag, flag, false, everyOther, mem.Contiguous(p.payload))
			}
		}
		tr.end()
		tr.begin("mc.flag_wait", it, noSpan)
		if err == nil {
			c.Flags.Wait(flag, int64(p.puts))
		}
		tr.end()
		tr.end()
		if slot >= 0 {
			p.lat[id][slot] = int64(time.Since(t0))
		}
		if c.Flags.Load(flag) != int64(p.puts) {
			p.badFlags.Add(1)
		}
		return err
	})
}

func (p *neighbourPut) warm() error {
	for i := 0; i < 3; i++ {
		if err := p.iteration(-1, -1, noSpan); err != nil {
			return err
		}
	}
	return nil
}

func (p *neighbourPut) timed(m *meter) (attempted, failed int64) {
	per, segs := p.cfg.split(p.refIters, len(m.segs), 1)
	for id := range p.lat {
		p.lat[id] = make([]int64, per)
	}
	opsPerIter := int64(p.np * p.puts)
	p.tnetBefore = p.m.TNetStats()
	p.inFlight = mem.PayloadsInFlight()
	p.before = snapshot(p.m)
	drv := p.cfg.drv
	for s := 0; s < segs; s++ {
		m.seg(s)
		m.begin()
		for k := 0; k < per; k++ {
			it := s*per + k
			parent := drv.begin(p.iterSpan, it, noSpan)
			if err := p.iteration(it, k, parent); err != nil {
				p.runErrs++
			}
			drv.end()
		}
		m.end(int64(per) * opsPerIter)
		for id := range p.lat {
			m.lat(p.lat[id]...)
		}
	}
	p.iters = per * segs
	p.work = snapshot(p.m).since(p.before)
	p.ops = int64(p.iters) * opsPerIter
	return p.ops, p.runErrs*opsPerIter + p.badFlags.Load()*int64(p.puts)
}

func (p *neighbourPut) check() (failed int64, sim simStats) {
	sim = newSimStats()
	failed = endChecks(p.name, p.m, mem.PayloadsInFlight()-p.inFlight)
	// Every cell saw exactly one burst of flag increments in the last
	// job (the flag file restarts per job).
	increments := snapshot(p.m).flagIncrements
	if want := int64(p.np * p.puts); increments != want {
		failed++
		fmt.Printf("# check: %s flag increments %d, want %d\n", p.name, increments, want)
	}
	digest := fnv.New64a()
	for id := 0; id < p.np; id++ {
		got := p.dst[id].BytesData()
		if !bytes.Equal(got, p.want[id]) {
			failed += int64(p.puts)
			fmt.Printf("# check: %s cell %d destination differs from its neighbour's source\n", p.name, id)
		}
		digest.Write(got)
	}
	tnetSim(sim.any, p.tnetBefore, p.m.TNetStats(), int64(p.iters))
	sim.any["flag_increments_per_iter"] = increments
	sim.seeded["dst_digest"] = int64(digest.Sum64())
	return failed, sim
}

func (p *neighbourPut) layers(out map[string]float64) {
	p.work.layers(p.ops, out)
	tot := p.cfg.rec.totals()
	// The median burst, not the mean: a cell goroutine that loses its
	// processor inside the issue loop (256 goroutines, two cores) would
	// charge the wait to the PUTs.
	out["core.put_issue_ns"] = medianInt64(p.cfg.rec.durations("core.put_issue")) / float64(p.puts)
	if fw := tot["mc.flag_wait"]; fw.count > 0 {
		out["mc.flag_wait_self_ns"] = float64(fw.self) / float64(fw.count*int64(p.puts))
	}
	spanMs(tot, "machine.new", "machine.new_ms", out)
	spanMs(tot, "machine.alloc", "machine.alloc_ms", out)
	out["machine.run_overhead_us"] = emptyRunUs(p.m)
}

func (p *neighbourPut) close() { p.m = nil }

var tnetZero tnet.Stats

// spanMs reports a span name's mean duration in milliseconds.
func spanMs(tot map[string]spanTotals, span, metric string, out map[string]float64) {
	if t := tot[span]; t.count > 0 {
		out[metric] = float64(t.total) / float64(t.count) / 1e6
	}
}

// emptyRunUs is the median wall time of a Machine.Run whose program
// does nothing: goroutine launch, worker start, drain and close — the
// lifecycle cost every job pays before its first PUT.
func emptyRunUs(m *machine.Machine) float64 {
	var d []int64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if err := m.Run(func(*machine.Cell) error { return nil }); err != nil {
			return 0
		}
		d = append(d, int64(time.Since(t0)))
	}
	return medianInt64(d) / 1e3
}

// tnetSim records T-net traffic per iteration: messages, bytes, hops
// and the per-operation message counts. rem is nonzero when the totals
// do not divide by the iteration count, i.e. iterations differed.
func tnetSim(out map[string]int64, before, after tnet.Stats, iters int64) {
	if iters <= 0 {
		iters = 1
	}
	var rem int64
	put := func(name string, v int64) {
		out[name] = v / iters
		rem += v % iters
	}
	put("tnet.messages", after.Messages-before.Messages)
	put("tnet.bytes", after.Bytes-before.Bytes)
	put("tnet.hops", after.HopsTotal-before.HopsTotal)
	for op := 0; op < msc.NumOps; op++ {
		if n := after.PerOp[op] - before.PerOp[op]; n != 0 {
			put("tnet.op."+msc.Op(op).String(), n)
		}
	}
	out["tnet.rem"] = rem
}

// put_stream: 512 B x 128 per cell on 16x16 cells, all into the same
// 512 bytes of the neighbour.
func setupPutStream(cfg *runCfg) (instance, error) {
	p := &neighbourPut{name: "put_stream", cfg: cfg, refIters: 400, puts: 128, payload: 512}
	w, h := 16, 16
	if cfg.short {
		w, h, p.puts = 4, 4, 16
	}
	if err := p.build(w, h, 1<<16, p.payload, p.payload); err != nil {
		return nil, err
	}
	for id := 0; id < p.np; id++ {
		left := (id + p.np - 1) % p.np
		p.want = append(p.want, p.src[left].BytesData())
	}
	return p, p.warm()
}

// put_bulk: per cell 8 contiguous 64 KiB PUTs and 8 stride PUTs of
// 8192 x 8 B (every other word of a 128 KiB source) on 8x8 cells. Each
// PUT lands in its own 64 KiB slot of the neighbour's destination.
func setupPutBulk(cfg *runCfg) (instance, error) {
	const slot = 64 << 10
	nEach := 8
	w, h := 8, 8
	if cfg.short {
		w, h, nEach = 2, 2, 1
	}
	p := &neighbourPut{name: "put_bulk", cfg: cfg, refIters: 420, puts: 2 * nEach, payload: slot, strided: nEach, slot: slot}
	if err := p.build(w, h, 4<<20, 2*slot, int64(2*nEach)*slot); err != nil {
		return nil, err
	}
	for id := 0; id < p.np; id++ {
		left := p.src[(id+p.np-1)%p.np].BytesData()
		want := make([]byte, 0, 2*nEach*slot)
		for k := 0; k < nEach; k++ {
			want = append(want, left[:slot]...)
		}
		strided := make([]byte, 0, slot)
		for i := 0; i < slot/8; i++ {
			strided = append(strided, left[16*i:16*i+8]...)
		}
		for k := 0; k < nEach; k++ {
			want = append(want, strided...)
		}
		p.want = append(p.want, want)
	}
	return p, p.warm()
}
