package ap1000plus

import (
	"fmt"

	"ap1000plus/internal/machine"
	"ap1000plus/internal/topology"
)

// Option configures a machine under construction; pass options to New.
// The machine's parameter struct itself is internal — options are the
// only construction surface, and every combination is validated before
// any cell is built, so a misconfigured machine is an error from New,
// never a half-working instance.
type Option func(*builder) error

// builder accumulates options into the internal machine config.
type builder struct {
	cfg      machine.Config
	haveGrid bool // WithGrid or WithCells seen
}

// New builds a machine from options. Geometry is mandatory: pass
// WithGrid for an explicit torus or WithCells for the most square
// torus of a given size. Everything else defaults to the paper's
// hardware — 16 MB per cell, 64-word MSC+ queues, the lock-free ring
// wire, no tracing or checking layers.
//
//	m, err := ap1000plus.New(
//		ap1000plus.WithGrid(8, 8),
//		ap1000plus.WithObserve(),
//	)
func New(opts ...Option) (*Machine, error) {
	var b builder
	for _, opt := range opts {
		if err := opt(&b); err != nil {
			return nil, err
		}
	}
	if !b.haveGrid {
		return nil, fmt.Errorf("ap1000plus: no geometry: pass WithGrid or WithCells")
	}
	return machine.New(b.cfg)
}

// WithGrid shapes the machine as a width x height torus (the product
// is the cell count, 4..4096).
func WithGrid(width, height int) Option {
	return func(b *builder) error {
		if b.haveGrid {
			return fmt.Errorf("ap1000plus: geometry set twice (one WithGrid/WithCells only)")
		}
		if _, err := topology.NewTorus(width, height); err != nil {
			return err
		}
		b.cfg.Width, b.cfg.Height = width, height
		b.haveGrid = true
		return nil
	}
}

// WithCells shapes the machine as the most square torus with exactly
// n cells, mirroring how AP1000 cabinets were configured (64 cells =
// 8x8).
func WithCells(n int) Option {
	return func(b *builder) error {
		if b.haveGrid {
			return fmt.Errorf("ap1000plus: geometry set twice (one WithGrid/WithCells only)")
		}
		t, err := topology.SquarishTorus(n)
		if err != nil {
			return err
		}
		b.cfg.Width, b.cfg.Height = t.Width(), t.Height()
		b.haveGrid = true
		return nil
	}
}

// WithMemoryPerCell sets each cell's DRAM in bytes (default 16 MB).
// Memory is committed lazily, so large machines with small working
// sets stay cheap.
func WithMemoryPerCell(bytes int64) Option {
	return func(b *builder) error {
		if bytes <= 0 {
			return fmt.Errorf("ap1000plus: memory per cell must be positive, got %d", bytes)
		}
		b.cfg.MemoryPerCell = bytes
		return nil
	}
}

// WithQueueWords sizes the MSC+ command queues in 32-bit words
// (default 64, the hardware's FIFO depth; overflow spills to DRAM).
// The size must be a power-of-two count, at least two, of 8-word
// commands — 16, 32, 64, 128, ... words; New rejects any other.
func WithQueueWords(words int) Option {
	return func(b *builder) error {
		if words <= 0 {
			return fmt.Errorf("ap1000plus: queue words must be positive, got %d", words)
		}
		b.cfg.QueueWords = words
		return nil
	}
}

// WithPartitions splits the machine into k disjoint partitions of
// near-equal contiguous cell ranges. Each partition gets its own
// barrier domain, its jobs run independently (Machine.RunJob, or the
// gang Scheduler), and the T-net refuses cross-partition traffic —
// the isolation boundary multi-tenant runs rely on. Default 1 (the
// whole machine is one partition). Conflicts with WithSanitize, whose
// model spans all cells.
func WithPartitions(k int) Option {
	return func(b *builder) error {
		if k <= 0 {
			return fmt.Errorf("ap1000plus: partition count must be positive, got %d", k)
		}
		b.cfg.Partitions = k
		return nil
	}
}

// WithTrace enables trace recording under the given application name;
// retrieve the capture with Machine.Traces and replay it with
// Simulate.
func WithTrace(app string) Option {
	return func(b *builder) error {
		if app == "" {
			return fmt.Errorf("ap1000plus: trace application name must be non-empty")
		}
		b.cfg.TraceApp = app
		return nil
	}
}

// WithSanitize arms the apsan communication race detector: every DMA
// access is checked against a happens-before model of flags, barriers,
// acknowledgements and message receipt. Implies synchronous packet
// delivery (the detector's clocks assume it).
func WithSanitize() Option {
	return func(b *builder) error {
		b.cfg.Sanitize = true
		return nil
	}
}

// WithObserve enables the per-cell counter layer, snapshot via
// Machine.Metrics. Zero-cost (one nil check per hook) when absent.
func WithObserve() Option {
	return func(b *builder) error {
		b.cfg.Observe = true
		return nil
	}
}

// WithTimeline additionally collects Chrome trace-event/Perfetto
// slices and instants into tl (see NewTimeline). Implies WithObserve.
func WithTimeline(tl *Timeline) Option {
	return func(b *builder) error {
		if tl == nil {
			return fmt.Errorf("ap1000plus: WithTimeline(nil)")
		}
		b.cfg.Timeline = tl
		return nil
	}
}

// WithFault injects a deterministic seeded wire-fault plan (see
// ParseFaultPlan) and arms the MSC+'s reliable-delivery path. Implies
// WithObserve.
func WithFault(plan *FaultPlan) Option {
	return func(b *builder) error {
		if plan == nil {
			return fmt.Errorf("ap1000plus: WithFault(nil); omit the option for a trusted wire")
		}
		b.cfg.Fault = plan
		return nil
	}
}

// WithCombining arms the T-net's in-network combining of same-address
// combinable remote atomics — a hot counter costs O(log n) messages
// instead of O(n), with bit-for-bit identical results.
func WithCombining() Option {
	return func(b *builder) error {
		b.cfg.Combining = true
		return nil
	}
}

// WithDeliveryWorkers sets the delivery-worker count (default
// min(GOMAXPROCS, cells); one per cell under WithCombining). Each cell
// is pinned to the worker numbered id mod n.
func WithDeliveryWorkers(n int) Option {
	return func(b *builder) error {
		if n <= 0 {
			return fmt.Errorf("ap1000plus: delivery workers must be positive, got %d", n)
		}
		b.cfg.Workers = n
		return nil
	}
}
