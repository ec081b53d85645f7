// Package mlsim is the message level simulator of S5: a trace-driven
// timing simulator that replays per-PE event streams under a machine
// parameter model (package params), "preserving the order of message
// communications and barrier synchronization between processors".
//
// Like the paper's MLSim it computes, per PE, the four components of
// Figure 8 — execution time, run-time system time, communication
// overhead (processor time spent in communication code), and idle
// time (waiting for messages, flags and barriers) — plus the traffic
// statistics of S5 (message counts, sizes, distances).
//
// The same trace replayed under params.AP1000Plus() and
// params.AP1000x8() yields Table 2's two comparison columns against
// params.AP1000().
package mlsim

import (
	"fmt"
	"math"
	"sort"

	"ap1000plus/internal/event"
	"ap1000plus/internal/fault"
	"ap1000plus/internal/msc"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/params"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
)

// PEStats is one processor's time breakdown.
type PEStats struct {
	// Exec is user computation (trace compute x computation_factor).
	Exec event.Time
	// RTS is VPP-Fortran run-time-system time (address calculation).
	RTS event.Time
	// Overhead is processor time spent executing communication
	// library code and interrupt handlers.
	Overhead event.Time
	// Idle is time blocked on flags, receives and barriers.
	Idle event.Time
	// End is the PE's completion timestamp.
	End event.Time
}

// Total reports Exec+RTS+Overhead+Idle (== End when the trace starts
// at zero).
func (s PEStats) Total() event.Time { return s.Exec + s.RTS + s.Overhead + s.Idle }

// Result is one simulation outcome.
type Result struct {
	App   string
	Model string
	PEs   int
	PE    []PEStats
	// Elapsed is the completion time of the slowest PE.
	Elapsed event.Time
	// Messages and Bytes count T-net traffic (including GET requests,
	// replies and acknowledge round trips).
	Messages int64
	Bytes    int64
	// MeanDistance is the average routing distance in hops.
	MeanDistance float64
	// Queue reports the queue-occupancy extension's counters
	// (all-zero unless Features.ModelQueueOverflow is set).
	Queue QueueStats
	// Fault reports the fault layer's counters and recovery time; nil
	// when the replay ran without a fault plan.
	Fault *FaultResult
}

// Breakdown reports the mean per-PE components in microseconds.
type Breakdown struct {
	Exec, RTS, Overhead, Idle, Total float64
}

// Breakdown averages the components over PEs.
func (r *Result) Breakdown() Breakdown {
	var b Breakdown
	for _, pe := range r.PE {
		b.Exec += pe.Exec.Us()
		b.RTS += pe.RTS.Us()
		b.Overhead += pe.Overhead.Us()
		b.Idle += pe.Idle.Us()
	}
	n := float64(len(r.PE))
	b.Exec /= n
	b.RTS /= n
	b.Overhead /= n
	b.Idle /= n
	b.Total = b.Exec + b.RTS + b.Overhead + b.Idle
	return b
}

// us converts a microsecond parameter to simulator time.
func us(v float64) event.Time { return event.Microseconds(v) }

// flagLog records the increment history of one flag so a waiter can
// find when the target count was reached.
type flagLog struct {
	times []event.Time // kept sorted
}

func (f *flagLog) add(at event.Time) {
	f.times = append(f.times, at)
	// Increment times arrive mostly in order; restore order lazily.
	for i := len(f.times) - 1; i > 0 && f.times[i] < f.times[i-1]; i-- {
		f.times[i], f.times[i-1] = f.times[i-1], f.times[i]
	}
}

// reachedAt reports when the count reached target, if it has.
func (f *flagLog) reachedAt(target int64) (event.Time, bool) {
	if int64(len(f.times)) < target {
		return 0, false
	}
	return f.times[target-1], true
}

// arrival is a timed message in a (src,dst) SEND channel.
type arrival struct {
	at   event.Time
	size int64
}

// collective tracks one episode of a barrier/reduction on a group as
// a counter: trace.Validate admits only distinct members of the group,
// so the episode is complete when arrived reaches the group size, and
// it leaves the table when departed does.
type collective struct {
	key      int
	arrived  int
	departed int
	maxAt    event.Time // latest arrival
}

// pe is the per-processor replay state.
type pe struct {
	id     int
	events []trace.Event
	pc     int
	now    event.Time
	stats  PEStats
	// pending interrupt-handler time to fold into the clock at the
	// next step (software message handling steals the CPU).
	pendingIntr event.Time
	// episode counters for collectives, per group.
	episode map[trace.GroupID]int
	// coll is the collective this PE has arrived at and not yet left.
	coll *collective
	// inBurst marks that the previous event was also a PUT/GET, so
	// the library-entry costs amortize (the run-time system issues
	// element bursts inside one call).
	inBurst bool
	// blocked marks that the PE's last step failed and nothing it
	// waits on has changed since (see wake).
	blocked bool
	done    bool
}

// Sim is a configured simulation.
type Sim struct {
	ts   *trace.TraceSet
	p    *params.Params
	hops hopTable
	pes  []*pe
	// flags[pe][flag] increment history.
	flags []map[trace.FlagID]*flagLog
	// sends[src*PEs+dst] FIFO of arrivals.
	sends map[int][]arrival
	// colls holds the collective episodes some member has arrived at
	// and not every member has left.
	colls map[int]*collective

	messages  int64
	bytes     int64
	totalHops int64

	// logMessages enables collection of the per-message log used by
	// the contention analyzer.
	logMessages bool
	msgLog      []Message
	// queues carries the per-PE queue-occupancy extension state.
	queues []*queueModel
	// tl, when non-nil, collects a Perfetto timeline of the replay in
	// simulated time: one slice per executed trace event on each PE's
	// CPU track, async spans for wire/DMA activity on the MSC track.
	tl *obs.Timeline
	// finj/fres carry the fault layer (SetFault); nil without a plan.
	finj *fault.Injector
	fres *FaultResult
}

// Message is one logged network message: who sent what where, and
// when it departed the source MSC+.
type Message struct {
	Src, Dst int
	Depart   event.Time
	Size     int64
}

// collKey names the collective episode a PE arrives at with event e:
// the group, and the PE's count of collectives on that group mixed
// with the kind, so members that disagree on the kind meet in
// different episodes. It is one int so the table hashes it on the
// fast path.
func (s *Sim) collKey(pe *pe, e *trace.Event) int {
	ep := pe.episode[e.Group]*8 + int(e.Kind)
	return ep*len(s.ts.Meta.Groups) + int(e.Group)
}

// New prepares a simulation of ts under model p.
func New(ts *trace.TraceSet, p *params.Params) (*Sim, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	torus, err := topology.NewTorus(ts.Meta.Width, ts.Meta.Height)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		ts: ts, p: p, hops: newHopTable(torus),
		sends: make(map[int][]arrival),
		colls: make(map[int]*collective),
	}
	for id := 0; id < ts.Meta.PEs; id++ {
		s.pes = append(s.pes, &pe{
			id: id, events: ts.PE[id],
			episode: make(map[trace.GroupID]int),
		})
		s.flags = append(s.flags, make(map[trace.FlagID]*flagLog))
		s.queues = append(s.queues, &queueModel{})
	}
	return s, nil
}

// AttachTimeline directs the replay to emit Perfetto trace events
// (in simulated time) into tl. Call before run.
func (s *Sim) AttachTimeline(tl *obs.Timeline) {
	s.tl = tl
	if tl == nil {
		return
	}
	for id := 0; id < s.ts.Meta.PEs; id++ {
		tl.Process(id, fmt.Sprintf("PE %d", id))
		tl.Thread(id, obs.TidCPU, "cpu")
		tl.Thread(id, obs.TidMSC, "wire/dma")
	}
}

// Run replays the whole trace and returns the result. The replay is
// deterministic: PEs advance round-robin, each as far as its
// dependencies allow; a PE whose step failed is skipped until
// something it may be waiting on changes.
func Run(ts *trace.TraceSet, p *params.Params) (*Result, error) {
	s, err := New(ts, p)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// RunWithTimeline replays the trace while collecting a simulated-time
// Perfetto timeline into tl.
func RunWithTimeline(ts *trace.TraceSet, p *params.Params, tl *obs.Timeline) (*Result, error) {
	s, err := New(ts, p)
	if err != nil {
		return nil, err
	}
	s.AttachTimeline(tl)
	return s.run()
}

// Run replays the configured simulation (after optional AttachTimeline
// / SetFault) and returns the result. Call once.
func (s *Sim) Run() (*Result, error) { return s.run() }

func (s *Sim) run() (*Result, error) {
	for {
		progressed := false
		for _, pe := range s.pes {
			if s.advance(pe) {
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	res := &Result{
		App: s.ts.Meta.App, Model: s.p.Name, PEs: s.ts.Meta.PEs,
		Messages: s.messages, Bytes: s.bytes,
	}
	if s.messages > 0 {
		res.MeanDistance = float64(s.totalHops) / float64(s.messages)
	}
	for i, pe := range s.pes {
		if !pe.done {
			return nil, fmt.Errorf("mlsim: PE %d deadlocked at event %d/%d (%v)",
				pe.id, pe.pc, len(pe.events), pe.events[pe.pc])
		}
		pe.stats.End = pe.now
		res.PE = append(res.PE, pe.stats)
		if pe.now > res.Elapsed {
			res.Elapsed = pe.now
		}
		qs := s.queues[i].stats()
		res.Queue.Spills += qs.Spills
		res.Queue.Interrupts += qs.Interrupts
		if qs.MaxDepth > res.Queue.MaxDepth {
			res.Queue.MaxDepth = qs.MaxDepth
		}
	}
	if s.fres != nil {
		s.fres.Stats = s.finj.Stats()
		res.Fault = s.fres
	}
	return res, nil
}

// advance executes events for one PE until it blocks or finishes,
// reporting whether any event was consumed. A blocked PE is not
// retried: a failed FlagWait or RECV changes nothing, and a failed
// collective's only effect is its first arrival, so the retry would
// fail the same way without side effects until wake runs.
func (s *Sim) advance(pe *pe) bool {
	if pe.blocked {
		return false
	}
	progressed := false
	for pe.pc < len(pe.events) {
		if !s.step(pe, &pe.events[pe.pc]) {
			pe.blocked = true
			break
		}
		pe.pc++
		progressed = true
	}
	if pe.pc == len(pe.events) && !pe.done {
		pe.done = true
		progressed = true
	}
	return progressed
}

// wake lets a blocked PE be retried. Exactly three events can unblock
// a step, and each calls it: a flag increment on the PE (incFlag), a
// SEND queued to it (doSend), and the last arrival of a collective it
// belongs to (doCollective).
func (s *Sim) wake(id int) { s.pes[id].blocked = false }

// applyIntr folds accumulated interrupt-handler time into the clock.
func (pe *pe) applyIntr() {
	if pe.pendingIntr > 0 {
		pe.now += pe.pendingIntr
		pe.stats.Overhead += pe.pendingIntr
		pe.pendingIntr = 0
	}
}

// charge advances the PE clock by a cost in the given bucket.
func (pe *pe) charge(bucket *event.Time, d event.Time) {
	pe.now += d
	*bucket += d
}

// block parks the PE until at (idle time).
func (pe *pe) idleUntil(at event.Time) {
	if at > pe.now {
		pe.stats.Idle += at - pe.now
		pe.now = at
	}
}

// step tries to execute one event; false means blocked. With a
// timeline attached it wraps the execution in a CPU-track slice.
func (s *Sim) step(pe *pe, e *trace.Event) bool {
	if s.tl == nil {
		return s.stepExec(pe, e)
	}
	t0 := pe.now
	intr := pe.pendingIntr
	ok := s.stepExec(pe, e)
	if ok && pe.now > t0 {
		// pe.now only moves forward, and only this step call moves it,
		// so the per-PE CPU slices are sequential and nest trivially.
		cat, name := sliceKind(e)
		s.tl.Slice(pe.id, obs.TidCPU, cat, name, t0.Us(), (pe.now - t0).Us())
		if intr > 0 && pe.pendingIntr < intr {
			// applyIntr folded the pending handler time at the start of
			// this event's span; show it as a nested sub-slice.
			s.tl.Slice(pe.id, obs.TidCPU, "intr", "intr-handler", t0.Us(), intr.Us())
		}
	}
	return ok
}

// sliceKind maps a trace event to its timeline category and label.
func sliceKind(e *trace.Event) (cat, name string) {
	switch e.Kind {
	case trace.KindCompute:
		return "compute", "compute"
	case trace.KindPut:
		if e.Items > 1 {
			return "issue", "puts"
		}
		return "issue", "put"
	case trace.KindGet:
		if e.Items > 1 {
			return "issue", "gets"
		}
		return "issue", "get"
	case trace.KindSend:
		return "issue", "send"
	case trace.KindRecv:
		return "stall", "recv"
	case trace.KindFlagWait:
		return "stall", "flag-wait"
	case trace.KindBarrier:
		return "stall", "barrier"
	case trace.KindGopScalar:
		return "stall", "gop"
	case trace.KindGopVector:
		return "stall", "vgop"
	}
	return "event", e.Kind.String()
}

// stepExec executes one event; false means blocked.
func (s *Sim) stepExec(pe *pe, e *trace.Event) bool {
	switch e.Kind {
	case trace.KindCompute:
		pe.applyIntr()
		pe.inBurst = false
		pe.charge(&pe.stats.Exec, us(e.Dur*s.p.ComputationFactor))
		return true
	case trace.KindPut:
		pe.applyIntr()
		s.doPut(pe, e)
		pe.inBurst = true
		return true
	case trace.KindGet:
		pe.applyIntr()
		s.doGet(pe, e)
		pe.inBurst = true
		return true
	case trace.KindSend:
		pe.applyIntr()
		pe.inBurst = false
		s.doSend(pe, e)
		return true
	case trace.KindRecv:
		if ok := s.doRecv(pe, e); !ok {
			return false
		}
		pe.inBurst = false
		return true
	case trace.KindFlagWait:
		if ok := s.doFlagWait(pe, e); !ok {
			return false
		}
		pe.inBurst = false
		return true
	case trace.KindBarrier, trace.KindGopScalar, trace.KindGopVector:
		if ok := s.doCollective(pe, e); !ok {
			return false
		}
		pe.inBurst = false
		return true
	}
	// Unknown events are ignored (forward compatibility).
	return true
}

// rtsCharge applies the run-time system's address-calculation cost
// for RTS-attributed operations.
func (s *Sim) rtsCharge(pe *pe, e *trace.Event) {
	if !e.RTS {
		return
	}
	cost := s.p.RtsOpTime
	if e.Items > 1 {
		cost += s.p.RtsStrideTime
	}
	pe.charge(&pe.stats.RTS, us(cost))
}

// sendOverhead is the CPU time to issue one data transfer of size
// bytes (the S5.1 send-overhead formula for software handling; only
// prolog+enqueue for the MSC+). In a burst — consecutive PUT/GETs
// issued by one library call, as the run-time system's element loops
// do — the call entry/exit costs amortize onto the first operation.
func (s *Sim) sendOverhead(size int64, amortized bool) event.Time {
	p := s.p
	if p.Features.HardwareMessageHandling {
		if amortized {
			return us(p.PutEnqueueTime)
		}
		return us(p.PutPrologTime + p.PutEnqueueTime)
	}
	perOp := p.PutEnqueueTime + p.PutMsgPostTime*float64(size) + p.PutDmaSetTime
	if amortized {
		return us(perOp)
	}
	return us(p.PutPrologTime + perOp + p.PutEpilogTime +
		p.SendCompleteTime + p.SendCompleteFlagTime)
}

// recvHandling returns (latency, cpu): the arrival-to-flag latency at
// the receiver and the CPU time the receiver loses. For the MSC+ the
// CPU loss is zero.
func (s *Sim) recvHandling(size int64) (latency, cpu event.Time) {
	p := s.p
	if p.Features.HardwareMessageHandling {
		return us(p.RecvDmaSetTime + p.RecvCompleteFlagTime), 0
	}
	c := us(p.IntrRtcTime + p.RecvMsgFlushTime*float64(size) + p.RecvDmaSetTime +
		p.RecvCompleteTime + p.RecvCompleteFlagTime)
	return c, c
}

// wireTime is the network traversal time for size bytes over dist
// hops (Figure 7 items 15-18).
func (s *Sim) wireTime(size int64, dist int) event.Time {
	p := s.p
	return us(p.NetworkPrologTime + p.NetworkDelayTime*float64(dist) +
		p.PutMsgTime*float64(size) + p.NetworkEpilogTime)
}

// dmaLaunch is the hardware-pipeline delay between command issue and
// the first byte on the wire.
func (s *Sim) dmaLaunch() event.Time { return us(s.p.PutDmaSetTime) }

// chargeQueue runs the queue-occupancy extension for one outgoing
// command of size bytes issued now by pe.
func (s *Sim) chargeQueue(pe *pe, size int64) {
	if !s.p.Features.ModelQueueOverflow {
		return
	}
	occupy := s.dmaLaunch() + us(s.p.PutMsgTime*float64(size))
	intr := us(s.p.IntrRtcTime + s.p.RecvDmaSetTime)
	if charge := s.queues[pe.id].push(pe.now, occupy, intr); charge > 0 {
		if s.tl != nil {
			s.tl.Instant(pe.id, obs.TidMSC, "interrupt", "queue-refill", pe.now.Us())
		}
		pe.charge(&pe.stats.Overhead, charge)
	}
}

// hopTable answers Torus.Distance by lookup. That distance is the sum
// of the shortest ring displacements along X and along Y, so it is
// tabled per dimension: x and y hold each PE's coordinates, dx[ax*w+bx]
// and dy[ay*h+by] the hops between two coordinates.
type hopTable struct {
	w, h   int
	x, y   []int
	dx, dy []int
}

func newHopTable(t *topology.Torus) hopTable {
	w, h := t.Width(), t.Height()
	ht := hopTable{w: w, h: h, x: make([]int, w*h), y: make([]int, w*h), dx: make([]int, w*w), dy: make([]int, h*h)}
	for id := range ht.x {
		ht.x[id], ht.y[id] = t.Coord(topology.CellID(id))
	}
	for a := 0; a < w; a++ {
		for b := 0; b < w; b++ {
			ht.dx[a*w+b] = t.Distance(t.ID(a, 0), t.ID(b, 0))
		}
	}
	for a := 0; a < h; a++ {
		for b := 0; b < h; b++ {
			ht.dy[a*h+b] = t.Distance(t.ID(0, a), t.ID(0, b))
		}
	}
	return ht
}

// distance is Torus.Distance between PEs a and b.
func (ht *hopTable) distance(a, b int) int {
	return ht.dx[ht.x[a]*ht.w+ht.x[b]] + ht.dy[ht.y[a]*ht.h+ht.y[b]]
}

// account records one network message.
func (s *Sim) account(src, dst int, size int64) int {
	dist := s.hops.distance(src, dst)
	s.messages++
	s.bytes += size
	s.totalHops += int64(dist)
	return dist
}

// logMessage appends to the message log when enabled. depart is the
// time the message enters the network.
func (s *Sim) logMessage(src, dst int, depart event.Time, size int64) {
	if s.logMessages && src != dst {
		s.msgLog = append(s.msgLog, Message{Src: src, Dst: dst, Depart: depart, Size: size})
	}
}

// RunWithLog replays the trace and additionally returns the network
// message log, for contention analysis.
func RunWithLog(ts *trace.TraceSet, p *params.Params) (*Result, []Message, error) {
	s, err := New(ts, p)
	if err != nil {
		return nil, nil, err
	}
	s.logMessages = true
	res, err := s.run()
	if err != nil {
		return nil, nil, err
	}
	return res, s.msgLog, nil
}

// incFlag records a flag increment at the given time.
func (s *Sim) incFlag(peID int, flag trace.FlagID, at event.Time) {
	if flag == trace.NoFlag {
		return
	}
	fl := s.flags[peID][flag]
	if fl == nil {
		fl = &flagLog{}
		s.flags[peID][flag] = fl
	}
	fl.add(at)
	s.wake(peID)
}

// stridePackCost is the software gather/scatter cost of a strided
// transfer on a machine without stride DMA: the library packs the
// items into a contiguous buffer before sending (and unpacks after
// receiving), so one message still crosses the wire but the CPU pays
// a per-byte copy (S3.1: stride "can be done efficiently by repeating
// one-dimensional stride data transfer, as long as the overhead ...
// is very small" — on the AP1000 it is not).
func (s *Sim) stridePackCost(e *trace.Event) event.Time {
	if e.Items <= 1 || s.p.Features.HardwareStride {
		return 0
	}
	return us(s.p.StridePackTime * float64(e.Size))
}

// doPut issues a PUT (possibly strided, possibly acknowledged).
func (s *Sim) doPut(pe *pe, e *trace.Event) {
	s.rtsCharge(pe, e)
	dst := int(e.Peer)
	// Software stride: pack before sending, unpack at the receiver.
	pack := s.stridePackCost(e)
	pe.charge(&pe.stats.Overhead, pack)
	pe.charge(&pe.stats.Overhead, s.sendOverhead(e.Size, pe.inBurst))
	s.chargeQueue(pe, e.Size)
	dist := s.account(pe.id, dst, e.Size)
	depart := pe.now + s.dmaLaunch()
	s.logMessage(pe.id, dst, depart, e.Size)
	arrive := depart + s.wireTime(e.Size, dist) + s.wireFault(pe.id, dst, int(msc.OpPut))
	if s.tl != nil {
		s.tl.Async(pe.id, obs.TidMSC, "wire", "put-wire", depart.Us(), arrive.Us())
	}
	lat, cpu := s.recvHandling(e.Size)
	s.pes[dst].pendingIntr += cpu + pack
	ready := arrive + lat + pack
	// Send flag: the source area is reusable once the send DMA has
	// read it.
	s.incFlag(pe.id, e.SendFlag, depart+us(s.p.PutMsgTime*float64(e.Size)))
	s.incFlag(dst, e.RecvFlag, ready)
	lastArrive := ready
	if e.Ack {
		dist := s.hops.distance(pe.id, dst)
		if s.p.Features.DirectAck {
			// Ablation: the rejected direct-acknowledge design. The
			// receiving MSC+ replies when the receive DMA completes;
			// no GET request leg and no issue cost at the sender,
			// but extra hardware everywhere (S4.1).
			s.account(dst, pe.id, 0)
			s.logMessage(dst, pe.id, lastArrive+us(s.p.PutDmaSetTime), 0)
			ackArrive := lastArrive + us(s.p.PutDmaSetTime) + s.wireTime(0, dist)
			if s.tl != nil {
				s.tl.Async(pe.id, obs.TidMSC, "wire", "direct-ack", lastArrive.Us(), ackArrive.Us())
			}
			s.incFlag(pe.id, trace.AckFlag, ackArrive+us(s.p.RecvCompleteFlagTime))
			return
		}
		// The S4.1 acknowledgement: a zero-length GET rides behind
		// the PUT in the same library call; its reply bumps the
		// requester's AckFlag. Zero-length acknowledge traffic is
		// turned around by the message controller on both machine
		// generations (the AP1000's MSC also generated acknowledge
		// packets without processor help), so only the issue cost
		// hits the CPU.
		pe.charge(&pe.stats.Overhead, s.sendOverhead(0, true))
		s.account(pe.id, dst, 0)
		reqArrive := pe.now + s.dmaLaunch() + s.wireTime(0, dist)
		if reqArrive < lastArrive {
			reqArrive = lastArrive // in-order channel: ack follows data
		}
		s.logMessage(pe.id, dst, pe.now+s.dmaLaunch(), 0)
		s.account(dst, pe.id, 0)
		s.logMessage(dst, pe.id, reqArrive, 0)
		turn := us(s.p.RecvDmaSetTime + s.p.PutDmaSetTime)
		ackArrive := reqArrive + turn + s.wireTime(0, dist)
		if s.tl != nil {
			s.tl.Async(pe.id, obs.TidMSC, "wire", "ack-get", (pe.now + s.dmaLaunch()).Us(), ackArrive.Us())
		}
		s.incFlag(pe.id, trace.AckFlag, ackArrive+us(s.p.RecvCompleteFlagTime))
	}
}

// getServeCost returns (latency, remoteCPU) for turning a GET request
// into a reply at the data holder: hardware queues it on the MSC+;
// software takes an interrupt and re-sends.
func (s *Sim) getServeCost(size int64) (latency, remoteCPU event.Time) {
	p := s.p
	if p.Features.HardwareMessageHandling {
		return us(p.RecvDmaSetTime + p.PutDmaSetTime + p.PutMsgTime*float64(size)), 0
	}
	c := us(p.IntrRtcTime+p.RecvDmaSetTime) +
		s.sendOverhead(size, true)
	return c, c
}

// doGet issues a GET (request + remote reply + local delivery).
func (s *Sim) doGet(pe *pe, e *trace.Event) {
	s.rtsCharge(pe, e)
	dst := int(e.Peer)
	pack := s.stridePackCost(e)
	// Request: a small command packet.
	pe.charge(&pe.stats.Overhead, s.sendOverhead(0, pe.inBurst))
	s.chargeQueue(pe, 0)
	dist := s.account(pe.id, dst, 0)
	reqArrive := pe.now + s.dmaLaunch() + s.wireTime(0, dist) + s.wireFault(pe.id, dst, int(msc.OpGet))
	s.logMessage(pe.id, dst, pe.now+s.dmaLaunch(), 0)
	replyDelay, remoteCPU := s.getServeCost(e.Size)
	s.pes[dst].pendingIntr += remoteCPU + pack
	s.account(dst, pe.id, e.Size)
	s.logMessage(dst, pe.id, reqArrive+replyDelay+pack, e.Size)
	replyArrive := reqArrive + replyDelay + pack + s.wireTime(e.Size, dist) + s.wireFault(dst, pe.id, int(msc.OpGetReply))
	if s.tl != nil {
		s.tl.Async(pe.id, obs.TidMSC, "wire", "get-req", (pe.now + s.dmaLaunch()).Us(), reqArrive.Us())
		s.tl.Async(pe.id, obs.TidMSC, "wire", "get-reply", (reqArrive + replyDelay + pack).Us(), replyArrive.Us())
	}
	lat, cpu := s.recvHandling(e.Size)
	pe.pendingIntr += cpu + pack
	s.incFlag(dst, e.SendFlag, reqArrive+replyDelay+pack)
	s.incFlag(pe.id, e.RecvFlag, replyArrive+lat+pack)
}

// doSend transmits a SEND-model message (blocking in the library).
func (s *Sim) doSend(pe *pe, e *trace.Event) {
	s.rtsCharge(pe, e)
	pe.charge(&pe.stats.Overhead, s.sendOverhead(e.Size, false))
	s.chargeQueue(pe, e.Size)
	dist := s.account(pe.id, int(e.Peer), e.Size)
	depart := pe.now + s.dmaLaunch()
	s.logMessage(pe.id, int(e.Peer), depart, e.Size)
	// SEND blocks until the data has left the source buffer.
	wire := s.wireTime(e.Size, dist) + s.wireFault(pe.id, int(e.Peer), int(msc.OpSend))
	pe.idleUntil(depart + us(s.p.PutMsgTime*float64(e.Size)))
	arrive := depart + wire
	if s.tl != nil {
		s.tl.Async(pe.id, obs.TidMSC, "wire", "send-wire", depart.Us(), arrive.Us())
	}
	lat, cpu := s.recvHandling(e.Size)
	s.pes[int(e.Peer)].pendingIntr += cpu
	key := pe.id*len(s.pes) + int(e.Peer)
	s.sends[key] = append(s.sends[key], arrival{at: arrive + lat, size: e.Size})
	s.wake(int(e.Peer))
}

// doRecv matches the oldest SEND from the peer; blocked until one
// exists.
func (s *Sim) doRecv(pe *pe, e *trace.Event) bool {
	key := int(e.Peer)*len(s.pes) + pe.id
	q := s.sends[key]
	if len(q) == 0 {
		return false
	}
	msg := q[0]
	if len(q) == 1 {
		s.sends[key] = q[:0] // drained: the next SEND reuses the buffer
	} else {
		s.sends[key] = q[1:]
	}
	pe.applyIntr()
	pe.charge(&pe.stats.Overhead, us(s.p.RecvSearchTime))
	pe.idleUntil(msg.at)
	pe.charge(&pe.stats.Overhead, us(s.p.RecvCopyTime*float64(msg.size)))
	return true
}

// doFlagWait blocks until the local flag reached the target.
func (s *Sim) doFlagWait(pe *pe, e *trace.Event) bool {
	fl := s.flags[pe.id][e.Flag]
	if fl == nil {
		return false
	}
	at, ok := fl.reachedAt(e.Target)
	if !ok {
		return false
	}
	pe.applyIntr()
	pe.charge(&pe.stats.Overhead, us(s.p.FlagCheckPrologTime))
	pe.idleUntil(at)
	pe.charge(&pe.stats.Overhead, us(s.p.FlagCheckEpilogTime))
	return true
}

// collectiveCost is the per-PE processor cost of a collective, and
// its release lag after the last arrival.
func (s *Sim) collectiveCost(e *trace.Event, groupSize int) (cpu, lag event.Time) {
	p := s.p
	stages := int(math.Ceil(math.Log2(float64(groupSize))))
	if stages < 1 {
		stages = 1
	}
	switch e.Kind {
	case trace.KindBarrier:
		if e.Group == trace.AllGroup {
			return us(p.FlagCheckPrologTime), us(p.BarrierHwTime)
		}
		return us(2 * p.BarrierStageTime), us(float64(stages) * p.BarrierStageTime)
	case trace.KindGopScalar:
		if p.Features.CommRegisters {
			per := p.CregStoreTime + p.CregLoadTime
			return us(2 * per), us(float64(2*stages) * per)
		}
		// Message-based tree: up and down passes of small sends.
		per := p.BarrierStageTime
		return us(2 * per), us(float64(2*stages) * per)
	case trace.KindGopVector:
		size := float64(e.Size)
		// Ring accumulate, pipelined at chunk granularity: the vector
		// streams around the ring while each member combines in
		// place, so the critical path is ~2 traversals of the data
		// plus a fixed per-hop term, ending with the B-net broadcast
		// of the result (S4.5).
		perByte := p.PutMsgTime + p.RingCopyTime
		hopFixed := p.NetworkPrologTime + p.NetworkEpilogTime
		lag = us(2*size*perByte + float64(groupSize-1)*hopFixed + p.BnetMsgTime*size)
		// Each member's processor combines its share and runs the
		// SEND/RECEIVE library once per pass.
		cpu = us(p.RingCopyTime*size) + s.sendOverhead(e.Size, false)
		if !p.Features.HardwareMessageHandling {
			_, hcpu := s.recvHandling(e.Size)
			cpu += hcpu
		}
		return cpu, lag
	}
	return 0, 0
}

// doCollective synchronizes a group operation: all members must
// arrive; everyone resumes at max(arrival)+lag.
func (s *Sim) doCollective(pe *pe, e *trace.Event) bool {
	group := s.ts.Group(e.Group)
	coll := pe.coll
	if coll == nil {
		key := s.collKey(pe, e)
		coll = s.colls[key]
		if coll == nil {
			coll = &collective{key: key}
			s.colls[key] = coll
		}
		coll.arrived++
		coll.maxAt = max(coll.maxAt, pe.now)
		pe.coll = coll
		if coll.arrived == len(group) {
			for _, m := range group {
				s.wake(int(m))
			}
		}
	}
	if coll.arrived < len(group) {
		return false
	}
	// All arrived: release.
	cpu, lag := s.collectiveCost(e, len(group))
	pe.applyIntr()
	pe.charge(&pe.stats.Overhead, cpu)
	pe.idleUntil(coll.maxAt + lag)
	pe.episode[e.Group]++
	pe.coll = nil
	if coll.departed++; coll.departed == len(group) {
		delete(s.colls, coll.key)
	}
	return true
}

// SpeedupVs computes Table 2's metric: how much faster this result is
// than the baseline (elapsed-time ratio).
func (r *Result) SpeedupVs(baseline *Result) float64 {
	return float64(baseline.Elapsed) / float64(r.Elapsed)
}

// SortedEnds returns the per-PE end times in ascending order (load
// balance inspection).
func (r *Result) SortedEnds() []event.Time {
	ends := make([]event.Time, len(r.PE))
	for i, pe := range r.PE {
		ends[i] = pe.End
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	return ends
}

// LoadImbalance reports max/mean of the per-PE end times — 1.0 is a
// perfectly balanced run. The paper's analysis leans on "load balance
// is good" for its small idle times; this makes that checkable.
func (r *Result) LoadImbalance() float64 {
	if len(r.PE) == 0 {
		return 1
	}
	var sum, max float64
	for _, pe := range r.PE {
		v := float64(pe.End)
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(r.PE))
	if mean == 0 {
		return 1
	}
	return max / mean
}
