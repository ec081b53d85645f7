package machine

import "sync"

// InterruptCause classifies OS interrupts the hardware raises.
type InterruptCause int

const (
	// IntrQueueRefill: an MSC+ queue emptied while commands were
	// spilled to DRAM and the OS reloaded them (S4.1).
	IntrQueueRefill InterruptCause = iota
	// IntrPageFault: a PUT/GET named an unmapped address (S3.2/S4.1).
	IntrPageFault
	// IntrRingBufferFull: a ring buffer filled and the OS allocated a
	// new one (S4.3).
	IntrRingBufferFull
	// IntrSanitizer: the apsan race detector recorded a report whose
	// detecting access ran on this cell (sanitized machines only).
	IntrSanitizer
	// IntrCellFault: a reliable-delivery retry budget was exhausted
	// and the MSC+ abandoned the transfer (fault-injected machines
	// only).
	IntrCellFault

	numInterruptCauses
)

func (c InterruptCause) String() string {
	switch c {
	case IntrQueueRefill:
		return "queue-refill"
	case IntrPageFault:
		return "page-fault"
	case IntrRingBufferFull:
		return "ring-buffer-full"
	case IntrSanitizer:
		return "sanitizer-report"
	case IntrCellFault:
		return "cell-fault"
	}
	return "unknown"
}

// OS is a cell's operating-system state: interrupt counters and the
// fault log. The functional machine never kills a program on an
// asynchronous fault (the hardware drops the offending message and
// interrupts); tests assert on these logs instead. A command aimed at
// a cell that does not exist or lies in another partition is such a
// fault: a page-fault interrupt, not a crash of the host process.
type OS struct {
	mu         sync.Mutex
	interrupts [numInterruptCauses]int64
	faults     []error
	// obsHook, when set, observes every interrupt (obs layer); it runs
	// outside the OS lock on the interrupted goroutine.
	obsHook func(InterruptCause)
}

func newOS() *OS { return &OS{} }

func (o *OS) interrupt(cause InterruptCause) {
	o.mu.Lock()
	o.interrupts[cause]++
	hook := o.obsHook
	o.mu.Unlock()
	if hook != nil {
		hook(cause)
	}
}

// reset clears the interrupt counters and fault log between
// gang-scheduled jobs; the obs hook survives — it belongs to the
// machine's observability layer, not the job.
func (o *OS) reset() {
	o.mu.Lock()
	o.interrupts = [numInterruptCauses]int64{}
	o.faults = nil
	o.mu.Unlock()
}

func (o *OS) fault(err error) {
	o.mu.Lock()
	o.faults = append(o.faults, err)
	o.mu.Unlock()
}

// Interrupt records an OS interrupt of the given cause; exported for
// layered subsystems (ring buffers) that trap to the OS.
func (o *OS) Interrupt(cause InterruptCause) { o.interrupt(cause) }

// Interrupts reports how many interrupts of the given cause fired.
func (o *OS) Interrupts(cause InterruptCause) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.interrupts[cause]
}

// InterruptCounts reports all interrupt counters keyed by cause name,
// in the form the metrics snapshot serializes.
func (o *OS) InterruptCounts() map[string]int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int64, numInterruptCauses)
	for c := InterruptCause(0); c < numInterruptCauses; c++ {
		if o.interrupts[c] != 0 {
			out[c.String()] = o.interrupts[c]
		}
	}
	return out
}

// Faults returns a copy of the fault log.
func (o *OS) Faults() []error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]error(nil), o.faults...)
}
