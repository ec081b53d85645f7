// Package obs is the observability layer for the functional machine
// and MLSim: per-cell atomic counters plus an optional Chrome
// trace-event timeline.
//
// The design constraint is the same one PR 1's sanitizer solved for
// correctness checking: when observation is off, the PUT issue path
// must stay allocation-free and branch-cheap. Holders therefore keep
// a nil *Observer and guard every hook with a nil check; when
// observation is on, the hot path touches only atomic.Int64 fields in
// a preallocated per-cell block — no locks, no allocation, no maps.
package obs

import (
	"sync/atomic"
	"time"
)

// CellCounters is one cell's hot-path counter block. All fields are
// atomics: the issue counters are bumped by the cell's CPU (program
// goroutine) while delivery counters are bumped by remote controller
// goroutines.
type CellCounters struct {
	// Issue counts, by operation. Put/Get are contiguous transfers;
	// PutS/GetS are stride ("PUTS"/"GETS" in Table 3 terms). AckGets
	// are the zero-address GETs the runtime issues behind acknowledged
	// PUTs (S4.1) — counted apart so Put/Get totals line up with
	// trace.Stats, which excludes acks the same way the paper does.
	Put, PutS, Get, GetS, AckGet atomic.Int64
	Send                         atomic.Int64
	RemoteStore, RemoteLoad      atomic.Int64

	// Payload bytes by direction of issue.
	PutBytes, GetBytes, SendBytes atomic.Int64

	// Receive-side DMA activity on this cell.
	RecvDMAs, DeliveredBytes atomic.Int64

	// Queue events observed live from the MSC+ (spills to DRAM and
	// the OS refill interrupts that drain the spill area).
	Spills, Refills atomic.Int64

	// OS interrupts taken by this cell, any cause (per-cause counts
	// live in machine.Metrics via the OS).
	Interrupts atomic.Int64

	// Synchronization stalls: blocking flag waits and barrier
	// arrivals, with the wall-clock nanoseconds spent blocked.
	FlagWaits, FlagWaitNanos    atomic.Int64
	Barriers, BarrierStallNanos atomic.Int64

	// Reliable-delivery activity under a fault plan (all zero
	// otherwise). Retransmits counts extra wire attempts this cell's
	// controller made; BackoffNanos the simulated backoff it charged.
	// Dedups counts duplicate packets this cell's receive side
	// discarded, CorruptDetected checksum rejections, CellFaults
	// deliveries abandoned after the retry budget.
	Retransmits, BackoffNanos atomic.Int64
	Dedups, CorruptDetected   atomic.Int64
	CellFaults                atomic.Int64

	// DSM page-cache activity on this cell (all zero unless the cell's
	// DSM enables write-through paging). Hits/Misses/Evictions are
	// local cache events; DSMInvalsSent counts invalidations this
	// cell's MSC+ issued as a page owner, DSMInvalsRecv invalidations
	// applied to this cell's cache as a sharer.
	DSMHits, DSMMisses, DSMEvictions atomic.Int64
	DSMInvalsSent, DSMInvalsRecv     atomic.Int64

	// Remote-atomic activity. Atomics counts requests this cell's CPU
	// issued; AtomicsExecuted RMWs this cell's controller performed as
	// the word's owner; AtomicsCombined requests absorbed into a
	// combining fold opened by an earlier request instead of reaching
	// the wire (Config.Combining); AtomicReplays duplicate requests
	// served from the reliable path's result-replay cache instead of
	// re-executing.
	Atomics, AtomicsExecuted       atomic.Int64
	AtomicsCombined, AtomicReplays atomic.Int64

	// PGAS aggregation activity (all zero unless the pgas layer runs
	// in aggregated mode). AggPushes counts fine-grained operations
	// buffered instead of issued; AggPacketsSent packets shipped in
	// exchange rounds; AggAdvances exchange rounds this cell ran;
	// AggApplied packets applied to this cell's memory as the owner.
	AggPushes, AggPacketsSent atomic.Int64
	AggAdvances, AggApplied   atomic.Int64
}

// CellSnapshot is the plain-integer copy of a CellCounters block,
// suitable for JSON encoding and table rendering.
type CellSnapshot struct {
	Put, PutS, Get, GetS, AckGet     int64
	Send                             int64
	RemoteStore, RemoteLoad          int64
	PutBytes, GetBytes, SendBytes    int64
	RecvDMAs, DeliveredBytes         int64
	Spills, Refills                  int64
	Interrupts                       int64
	FlagWaits, FlagWaitNanos         int64
	Barriers, BarrierStallNanos      int64
	Retransmits, BackoffNanos        int64
	Dedups, CorruptDetected          int64
	CellFaults                       int64
	DSMHits, DSMMisses, DSMEvictions int64
	DSMInvalsSent, DSMInvalsRecv     int64
	Atomics, AtomicsExecuted         int64
	AtomicsCombined, AtomicReplays   int64
	AggPushes, AggPacketsSent        int64
	AggAdvances, AggApplied          int64
}

// Snapshot copies the counters at a point in time.
func (c *CellCounters) Snapshot() CellSnapshot {
	return CellSnapshot{
		Put: c.Put.Load(), PutS: c.PutS.Load(),
		Get: c.Get.Load(), GetS: c.GetS.Load(), AckGet: c.AckGet.Load(),
		Send:        c.Send.Load(),
		RemoteStore: c.RemoteStore.Load(), RemoteLoad: c.RemoteLoad.Load(),
		PutBytes: c.PutBytes.Load(), GetBytes: c.GetBytes.Load(), SendBytes: c.SendBytes.Load(),
		RecvDMAs: c.RecvDMAs.Load(), DeliveredBytes: c.DeliveredBytes.Load(),
		Spills: c.Spills.Load(), Refills: c.Refills.Load(),
		Interrupts: c.Interrupts.Load(),
		FlagWaits:  c.FlagWaits.Load(), FlagWaitNanos: c.FlagWaitNanos.Load(),
		Barriers: c.Barriers.Load(), BarrierStallNanos: c.BarrierStallNanos.Load(),
		Retransmits: c.Retransmits.Load(), BackoffNanos: c.BackoffNanos.Load(),
		Dedups: c.Dedups.Load(), CorruptDetected: c.CorruptDetected.Load(),
		CellFaults: c.CellFaults.Load(),
		DSMHits:    c.DSMHits.Load(), DSMMisses: c.DSMMisses.Load(),
		DSMEvictions:  c.DSMEvictions.Load(),
		DSMInvalsSent: c.DSMInvalsSent.Load(), DSMInvalsRecv: c.DSMInvalsRecv.Load(),
		Atomics: c.Atomics.Load(), AtomicsExecuted: c.AtomicsExecuted.Load(),
		AtomicsCombined: c.AtomicsCombined.Load(), AtomicReplays: c.AtomicReplays.Load(),
		AggPushes: c.AggPushes.Load(), AggPacketsSent: c.AggPacketsSent.Load(),
		AggAdvances: c.AggAdvances.Load(), AggApplied: c.AggApplied.Load(),
	}
}

// Add accumulates another snapshot into this one (for machine totals).
func (s *CellSnapshot) Add(o CellSnapshot) {
	s.Put += o.Put
	s.PutS += o.PutS
	s.Get += o.Get
	s.GetS += o.GetS
	s.AckGet += o.AckGet
	s.Send += o.Send
	s.RemoteStore += o.RemoteStore
	s.RemoteLoad += o.RemoteLoad
	s.PutBytes += o.PutBytes
	s.GetBytes += o.GetBytes
	s.SendBytes += o.SendBytes
	s.RecvDMAs += o.RecvDMAs
	s.DeliveredBytes += o.DeliveredBytes
	s.Spills += o.Spills
	s.Refills += o.Refills
	s.Interrupts += o.Interrupts
	s.FlagWaits += o.FlagWaits
	s.FlagWaitNanos += o.FlagWaitNanos
	s.Barriers += o.Barriers
	s.BarrierStallNanos += o.BarrierStallNanos
	s.Retransmits += o.Retransmits
	s.BackoffNanos += o.BackoffNanos
	s.Dedups += o.Dedups
	s.CorruptDetected += o.CorruptDetected
	s.CellFaults += o.CellFaults
	s.DSMHits += o.DSMHits
	s.DSMMisses += o.DSMMisses
	s.DSMEvictions += o.DSMEvictions
	s.DSMInvalsSent += o.DSMInvalsSent
	s.DSMInvalsRecv += o.DSMInvalsRecv
	s.Atomics += o.Atomics
	s.AtomicsExecuted += o.AtomicsExecuted
	s.AtomicsCombined += o.AtomicsCombined
	s.AtomicReplays += o.AtomicReplays
	s.AggPushes += o.AggPushes
	s.AggPacketsSent += o.AggPacketsSent
	s.AggAdvances += o.AggAdvances
	s.AggApplied += o.AggApplied
}

// Observer is a machine-wide observation context: one counter block
// per cell and, optionally, a shared timeline. A nil *Observer means
// observation is disabled; all hook sites nil-check before touching
// it, which is the entire cost of the feature when off.
type Observer struct {
	start time.Time
	cells []CellCounters
	tl    *Timeline
}

// NewObserver allocates counter blocks for n cells. tl may be nil
// (counters only).
func NewObserver(n int, tl *Timeline) *Observer {
	return &Observer{start: time.Now(), cells: make([]CellCounters, n), tl: tl}
}

// Cell returns cell id's counter block.
func (o *Observer) Cell(id int) *CellCounters { return &o.cells[id] }

// Timeline returns the attached timeline, or nil.
func (o *Observer) Timeline() *Timeline { return o.tl }

// Start returns the observation epoch (machine construction time).
func (o *Observer) Start() time.Time { return o.start }

// NowUs returns wall-clock microseconds since the epoch — the
// timestamp base for functional-machine timelines. (The functional
// machine is untimed; wall time is the only clock it has.)
func (o *Observer) NowUs() float64 {
	return float64(time.Since(o.start).Nanoseconds()) / 1e3
}

// Snapshot copies every cell's counters.
func (o *Observer) Snapshot() []CellSnapshot {
	out := make([]CellSnapshot, len(o.cells))
	for i := range o.cells {
		out[i] = o.cells[i].Snapshot()
	}
	return out
}
