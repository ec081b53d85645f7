package machine

import "errors"

// Typed sentinel errors for the simulator's user-facing failure
// classes. Layered packages (core, the facade) wrap these with
// context via fmt.Errorf("...: %w", ...), so callers branch with
// errors.Is instead of matching message strings.
var (
	// ErrBadAddress marks a transfer aimed at an invalid destination
	// cell, a cell in another partition, or an unmapped address.
	ErrBadAddress = errors.New("bad address")
	// ErrBadStride marks an invalid transfer shape: a malformed stride
	// pattern, mismatched send/receive payload totals, or a transfer
	// beyond the DMA size limit.
	ErrBadStride = errors.New("bad stride")
	// ErrQueueFull marks a command list that outgrew its reservation
	// (the CommandList analogue of the MSC+ queue limit; the hardware
	// queues themselves never reject — they spill to DRAM).
	ErrQueueFull = errors.New("queue full")
	// ErrRetryBudget marks a transfer abandoned after the
	// reliable-delivery retry budget; CellFault wraps it.
	ErrRetryBudget = errors.New("retry budget exhausted")
)
