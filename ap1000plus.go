// Package ap1000plus is a library reproduction of the Fujitsu AP1000+
// ("AP1000+: Architectural Support of PUT/GET Interface for
// Parallelizing Compiler", ASPLOS VI, 1994): a functional simulator
// of the machine's communication architecture — hardware PUT/GET
// with flag updates combined with data transfer, one-dimensional
// stride DMA, communication registers with present bits, ring-buffer
// SEND/RECEIVE, distributed shared memory — plus the trace-driven
// message level simulator (MLSim) used for the paper's evaluation.
//
// # Quick start
//
//	m, _ := ap1000plus.New(ap1000plus.WithGrid(2, 2))
//	segs := make([]*ap1000plus.Segment, m.Cells())
//	for id := 0; id < m.Cells(); id++ {
//		segs[id], _, _ = m.Cell(ap1000plus.CellID(id)).AllocFloat64("buf", 128)
//	}
//	m.Run(func(c *ap1000plus.Cell) error {
//		comm := ap1000plus.NewComm(c)
//		if c.ID() == 0 {
//			// put(node_id, raddr, laddr, size, ack)
//			return comm.Put(ap1000plus.Transfer{
//				To: 1, Remote: segs[1].Base(), Local: segs[0].Base(),
//				Size: 64, Ack: true,
//			})
//		}
//		return nil
//	})
//
// A burst of transfers can be batched into one doorbell — and
// optionally coalesced into fewer stride commands — with
// comm.Batch().Coalesce(), appending transfers and calling Commit.
//
// Remote atomics update 8-byte words at their owning cell exactly
// once: comm.FetchAdd / CompareAndSwap / Swap block for the previous
// value, while comm.AtomicAdd / AtomicMin / AtomicMax are
// fire-and-forget, fenced by comm.FenceAtomics. WithCombining merges
// same-address combinable atomics inside the T-net, so a hot counter
// costs O(log n) messages instead of O(n) — with bit-for-bit
// identical results.
//
// The architecture lives in internal packages, re-exported here:
//
//   - machine: cells, MSC+ queues, MC flags/MMU/registers, networks
//   - core: the paper's put/get/put_stride/get_stride interface
//   - vpp: the VPP-Fortran-style run-time system (global arrays,
//     SPREAD MOVE, OVERLAP FIX)
//   - sendrecv, barrier, dsm: SEND/RECEIVE, collectives, shared memory
//   - trace, params, mlsim: the evaluation toolchain
package ap1000plus

import (
	"ap1000plus/internal/barrier"
	"ap1000plus/internal/core"
	"ap1000plus/internal/dsm"
	"ap1000plus/internal/fault"
	"ap1000plus/internal/machine"
	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
	"ap1000plus/internal/mlsim"
	"ap1000plus/internal/obs"
	"ap1000plus/internal/params"
	"ap1000plus/internal/pgas"
	"ap1000plus/internal/sendrecv"
	"ap1000plus/internal/tenancy"
	"ap1000plus/internal/topology"
	"ap1000plus/internal/trace"
	"ap1000plus/internal/vpp"
)

// Machine construction and cells. Machines are built with New and a
// list of Options (options.go); the parameter struct stays internal.
type (
	// Machine is a functional AP1000+ system instance.
	Machine = machine.Machine
	// Cell is one processing element.
	Cell = machine.Cell
	// CellID identifies a cell.
	CellID = topology.CellID
	// Segment is an allocated region of cell memory.
	Segment = mem.Segment
	// Addr is a logical memory address.
	Addr = mem.Addr
	// Stride describes a one-dimensional stride pattern (Figure 3).
	Stride = mem.Stride
	// FlagID names a synchronization flag.
	FlagID = mc.FlagID
	// Group is a set of cells for group collectives.
	Group = topology.Group
	// Torus is the machine geometry.
	Torus = topology.Torus
)

// Table1 returns the published AP1000+ specifications.
func Table1() machine.Spec { return machine.Table1() }

// The PUT/GET interface (the paper's contribution).
type (
	// Comm is a cell's PUT/GET endpoint.
	Comm = core.Comm
	// Transfer describes one PUT or GET (destination, addresses, size,
	// flags, acknowledgement).
	Transfer = core.Transfer
	// CommandList is a batch of transfers issued with a single Commit
	// (one MSC+ doorbell), optionally coalescing adjacent transfers.
	CommandList = core.CommandList
)

// NewComm builds the PUT/GET interface for a cell.
func NewComm(c *Cell) *Comm { return core.New(c) }

// Typed issue errors, for errors.Is against validation and delivery
// failures.
var (
	// ErrBadAddress reports a transfer to an invalid cell, a cell in
	// another partition, or an unmapped address.
	ErrBadAddress = core.ErrBadAddress
	// ErrBadStride reports an invalid or oversized stride pattern.
	ErrBadStride = core.ErrBadStride
	// ErrQueueFull reports an overfull command queue or CommandList.
	ErrQueueFull = core.ErrQueueFull
	// ErrRetryBudget reports a transfer abandoned by reliable delivery;
	// CellFault wraps it.
	ErrRetryBudget = core.ErrRetryBudget
)

// Flag constants.
const (
	// NoFlag requests no flag update (the paper's address-0 idiom).
	NoFlag = mc.NoFlag
	// AckFlagID is the implicit acknowledge flag of the Ack & Barrier
	// model.
	AckFlagID = mc.AckFlagID
	// AtomicAckFlagID is the implicit flag counting non-fetching
	// remote-atomic acknowledgements; Comm.FenceAtomics waits on it.
	AtomicAckFlagID = mc.AtomicAckFlagID
)

// Contiguous returns the stride pattern of a plain transfer.
func Contiguous(size int64) Stride { return mem.Contiguous(size) }

// SEND/RECEIVE, collectives, and shared memory.
type (
	// Endpoint is a SEND/RECEIVE port over a ring buffer.
	Endpoint = sendrecv.Endpoint
	// Sync provides barriers and global reductions.
	Sync = barrier.Sync
	// DSM is the distributed-shared-memory interface of a cell.
	DSM = dsm.DSM
)

// NewEndpoint installs a SEND/RECEIVE endpoint on a cell.
func NewEndpoint(c *Cell, ringBytes int64) *Endpoint { return sendrecv.New(c, ringBytes) }

// NewSync builds the synchronization library for a cell.
func NewSync(c *Cell, ep *Endpoint) (*Sync, error) { return barrier.New(c, ep) }

// NewDSM builds the shared-memory interface for a cell.
func NewDSM(c *Cell) (*DSM, error) { return dsm.New(c) }

// The VPP-Fortran-style run-time system.
type (
	// Runtime is the per-cell run-time system.
	Runtime = vpp.Runtime
	// Array1D is a block-distributed global vector with overlap.
	Array1D = vpp.Array1D
	// Array2D is a column-block-distributed global matrix with
	// overlap columns (Figure 2).
	Array2D = vpp.Array2D
	// CyclicArray1D is a cyclically-distributed global vector.
	CyclicArray1D = vpp.CyclicArray1D
	// Block2D is a global matrix partitioned in both dimensions over
	// the process grid, with group-collective overlap exchange.
	Block2D = vpp.Block2D
)

// NewRuntime builds the run-time system for a cell.
func NewRuntime(c *Cell) (*Runtime, error) { return vpp.NewRuntime(c) }

// NewArray1D allocates a global 1-D array across the machine.
func NewArray1D(m *Machine, name string, n, overlap int) (*Array1D, error) {
	return vpp.NewArray1D(m, name, n, overlap)
}

// NewArray2D allocates a global 2-D array across the machine.
func NewArray2D(m *Machine, name string, rows, cols, overlap int) (*Array2D, error) {
	return vpp.NewArray2D(m, name, rows, cols, overlap)
}

// NewCyclicArray1D allocates a cyclically-distributed global array.
func NewCyclicArray1D(m *Machine, name string, n int) (*CyclicArray1D, error) {
	return vpp.NewCyclicArray1D(m, name, n)
}

// NewBlock2D allocates a two-dimensionally partitioned global array.
func NewBlock2D(m *Machine, name string, rows, cols, overlap int) (*Block2D, error) {
	return vpp.NewBlock2D(m, name, rows, cols, overlap)
}

// PGAS symmetric heap: round-robin-distributed int64 shared arrays
// with UPC-style global indexing (element i lives on cell i mod P),
// fine-grained Get/Put/atomic operations, barriers and reductions —
// and an exstack-style aggregation mode that buffers fine-grained
// operations per destination and exchanges them in bulk rounds.
type (
	// SymmetricHeap is a heap of round-robin shared arrays; allocate
	// arrays and per-cell PEs before Machine.Run.
	SymmetricHeap = pgas.Heap
	// SharedArray is one distributed array on the symmetric heap.
	SharedArray = pgas.Shared
	// PGASLayout is the round-robin global-index mapping.
	PGASLayout = pgas.Layout
	// PE is one cell's PGAS handle: naive fine-grained operations.
	PE = pgas.PE
	// Aggregator owns the machine-wide exchange buffers for
	// aggregated mode.
	Aggregator = pgas.Aggregator
	// AggPE is one cell's aggregation context: buffered operations
	// with explicit Advance/Flush exchange rounds.
	AggPE = pgas.AggPE
)

// NewSymmetricHeap builds a symmetric heap on the machine.
func NewSymmetricHeap(m *Machine) (*SymmetricHeap, error) { return pgas.NewHeap(m) }

// NewPE builds one cell's PGAS processing element; construct one per
// cell, in rank order.
func NewPE(h *SymmetricHeap, c *Cell) (*PE, error) { return pgas.NewPE(h, c) }

// NewAggregator builds the aggregated-mode exchange buffers; Bind a
// PE on every cell. packets <= 0 selects the default region capacity.
func NewAggregator(h *SymmetricHeap, packets int) (*Aggregator, error) {
	return pgas.NewAggregator(h, packets)
}

// Multi-tenant partitions and gang scheduling (WithPartitions).
type (
	// Partition is one disjoint cell range of a partitioned machine,
	// with its own barrier domain and job slot; see Machine.Partition,
	// Machine.RunJob.
	Partition = machine.Partition
	// Scheduler gang-schedules queued tenant jobs onto free
	// partitions, FIFO with best-fit placement.
	Scheduler = tenancy.Scheduler
	// TenantJob is one gang-scheduled unit of work.
	TenantJob = tenancy.Job
	// TenantResult is a job's completion record with queue/run/sojourn
	// latencies.
	TenantResult = tenancy.Result
	// Ticket is the async handle Scheduler.Submit returns.
	Ticket = tenancy.Ticket
	// LoadGen replays an open-loop Poisson stream of job arrivals
	// against a scheduler.
	LoadGen = tenancy.LoadGen
)

// NewScheduler wraps a partitioned machine in a gang scheduler and
// opens it; Close drains and closes the machine.
func NewScheduler(m *Machine) (*Scheduler, error) { return tenancy.New(m) }

// Observability (WithObserve / WithTimeline).
type (
	// Metrics is a machine-wide counter snapshot; see Machine.Metrics.
	Metrics = machine.Metrics
	// Timeline collects Chrome trace-event / Perfetto JSON; attach one
	// via WithTimeline and write it with Timeline.WriteJSON.
	Timeline = obs.Timeline
)

// NewTimeline returns an empty Perfetto timeline collector.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// Fault injection (WithFault).
type (
	// FaultPlan is a deterministic, seedable wire-fault plan; attach
	// one via WithFault to run over a lossy network with the MSC+'s
	// reliable-delivery path armed. Check Machine.FaultErr after Run.
	FaultPlan = fault.Plan
	// CellFault reports a transfer abandoned after the retry budget.
	CellFault = machine.CellFault
)

// ParseFaultPlan parses a fault plan spec like
// "drop=0.05,dup=0.02,seed=42"; see fault.Parse for the grammar.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// Evaluation toolchain.
type (
	// TraceSet is a per-PE event capture.
	TraceSet = trace.TraceSet
	// Params is an MLSim machine model.
	Params = params.Params
	// SimResult is an MLSim replay outcome.
	SimResult = mlsim.Result
)

// AP1000 returns the Figure 6 software-messaging model.
func AP1000() *Params { return params.AP1000() }

// AP1000Plus returns the Figure 6 hardware PUT/GET model.
func AP1000Plus() *Params { return params.AP1000Plus() }

// AP1000x8 returns Table 2's comparison model (8x CPU, software
// messaging).
func AP1000x8() *Params { return params.AP1000x8() }

// Simulate replays a trace under a machine model.
func Simulate(ts *TraceSet, p *Params) (*SimResult, error) { return mlsim.Run(ts, p) }
