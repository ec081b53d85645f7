package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runCfg is everything a workload is allowed to see: the seed its
// inputs derive from, how long to run, and whether this is the traced
// pass. The program under test sees only the inputs generated from it.
type runCfg struct {
	seed uint64
	// scale stretches the reference iteration counts: 1.0 is the
	// reference 10 s run on the 2-core box, the traced pass runs at a
	// quarter of it. Counts are a pure function of scale, never of
	// elapsed time, so two runs at the same -seconds do the same work.
	scale float64
	// short selects the go-test sizes: every workload in well under a
	// second, checked against the goldens' "short" section.
	short bool
	// traced builds machines with Observe on and records driver spans
	// into rec; the end-to-end pass runs with both off.
	traced bool
	rec    *recorder
	// drv is the driver goroutine's span track; nil when untraced (every
	// track method accepts a nil receiver).
	drv *track
}

// split scales a reference iteration count and cuts it into at most
// maxSegs segments of equal work: per iterations in each of segs
// segments. short is the go-test size (shortPer iterations in each of
// a few segments).
func (c *runCfg) split(ref, maxSegs, shortPer int) (per, segs int) {
	if c.short {
		return shortPer, min(maxSegs, 4)
	}
	total := max(1, int(math.Round(float64(ref)*c.scale)))
	if total < maxSegs {
		return 1, total
	}
	return int(math.Round(float64(total) / float64(maxSegs))), maxSegs
}

// segment is one slice of the timed phase, kept as a diagnostic: the
// per-segment throughput and CPU show how steady the host (and the
// machine under test) was while the run was measured. The metrics
// themselves are whole-run values (see summarize).
type segment struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	ops     int64
}

// meter accumulates the timed phase. begin/end bracket timed work
// (untimed build and verify steps sit outside the brackets) and charge
// the current segment; latency samples are pooled over the whole run.
type meter struct {
	segs []segment
	lats []int64 // nanoseconds
	cur  int
	t0   time.Time
	cpu0 time.Duration
	m0   uint64
	ms   runtime.MemStats
}

func newMeter(segs int) *meter { return &meter{segs: make([]segment, segs)} }

// seg selects the segment subsequent begin/end calls charge.
func (m *meter) seg(k int) { m.cur = k }

func (m *meter) begin() {
	runtime.ReadMemStats(&m.ms)
	m.m0 = m.ms.Mallocs
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

func (m *meter) end(ops int64) {
	wall := time.Since(m.t0)
	cpu := processCPU() - m.cpu0
	runtime.ReadMemStats(&m.ms)
	s := &m.segs[m.cur]
	s.wall += wall
	s.cpu += cpu
	s.mallocs += m.ms.Mallocs - m.m0
	s.ops += ops
}

// lat adds latency samples to the run's pooled sample.
func (m *meter) lat(ns ...int64) { m.lats = append(m.lats, ns...) }

// ladderPercentiles are the percentiles every row carries, so that each
// workload's choice of tail percentile can be re-examined from any
// result.
var ladderPercentiles = []int{50, 75, 90, 95, 99}

// measured are the timed phase's contributions to the end-to-end
// metrics.
type measured struct {
	opsPerS     float64
	cpuNsPerOp  float64
	allocsPerOp float64
	latP50Us    float64
	latTailUs   float64
	samples     int
	// beyond is how many samples lie beyond the tail percentile.
	beyond int
	// ladder is the pooled sample at ladderPercentiles, in microseconds.
	ladder map[string]float64
	// segs are diagnostics, in run order: throughput and CPU per segment.
	segs map[string][]float64
}

// summarize reduces the timed phase to whole-run values: ops over the
// timed wall, CPU and allocations over ops, and percentiles of the
// pooled latency sample. A stall, a garbage collection or a machine
// that slows as it ages is part of the run and is charged to it;
// repeatability comes from repeating runs (-runs N reports medians),
// not from discarding the slow part of one.
func (m *meter) summarize(tail int) measured {
	out := measured{ladder: map[string]float64{}, segs: map[string][]float64{}}
	var tot segment
	for _, s := range m.segs {
		tot.wall += s.wall
		tot.cpu += s.cpu
		tot.mallocs += s.mallocs
		tot.ops += s.ops
		if s.ops == 0 {
			continue // a run shorter than the segment count leaves some unused
		}
		out.segs["ops_per_s"] = append(out.segs["ops_per_s"], float64(s.ops)/s.wall.Seconds())
		out.segs["cpu_ns_per_op"] = append(out.segs["cpu_ns_per_op"], float64(s.cpu.Nanoseconds())/float64(s.ops))
	}
	ops := float64(max(tot.ops, 1))
	out.opsPerS = float64(tot.ops) / tot.wall.Seconds()
	out.cpuNsPerOp = float64(tot.cpu.Nanoseconds()) / ops
	out.allocsPerOp = float64(tot.mallocs) / ops
	sort.Slice(m.lats, func(a, b int) bool { return m.lats[a] < m.lats[b] })
	out.samples = len(m.lats)
	out.latP50Us = float64(percentile(m.lats, 50)) / 1e3
	out.latTailUs = float64(percentile(m.lats, tail)) / 1e3
	out.beyond = len(m.lats) - (tail*len(m.lats)+99)/100
	for _, p := range ladderPercentiles {
		out.ladder[fmt.Sprintf("p%d", p)] = float64(percentile(m.lats, p)) / 1e3
	}
	return out
}

// percentile reads the p-th percentile of an ascending slice by
// nearest rank; 0 for an empty slice.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// percentileUs is the p-th percentile of unsorted nanosecond samples,
// in microseconds.
func percentileUs(ns []int64, p int) float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return float64(percentile(s, p)) / 1e3
}

// median of a float slice (mean of the middle pair when even); 0 when
// empty. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) (exclusive method) computes them, so
// the spreads this benchmark prints are the ones the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 { // quantile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// medianInt64 is median over nanosecond samples, in the samples' unit.
func medianInt64(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// splitmix64 is the benchmark's input generator: every workload draws
// its payloads, indices and arrival gaps from one of these seeded with
// -seed, so the same seed gives the same inputs on every host.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 in [0, 1).
func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

func (s *splitmix64) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := s.next()
		for k := 0; k < 8 && i+k < len(b); k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
}

// digestWords is the FNV-1a digest of a result vector (little-endian
// words), as the goldens store it.
func digestWords(w []int64) int64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return int64(h.Sum64())
}
