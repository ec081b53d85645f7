// Package mc models the AP1000+ memory controller (MC): the MMU with
// its direct-mapped TLB, the fetch-and-increment flag updater that
// realizes the paper's "flag update combined with data transfer", and
// the 128 communication registers with present bits used for barrier
// synchronization and scalar global reduction (S4, S4.4).
package mc

import (
	"fmt"
	"sync"
)

// FlagID names a synchronization flag within one cell. Flag 0 plays
// the paper's "address 0" role: PUT/GET with flag 0 updates nothing.
type FlagID int32

// NoFlag is the "do not update" flag (the paper passes address 0).
const NoFlag FlagID = 0

// AckFlagID identifies the implicit acknowledge flag every cell owns
// (S2.2, the Ack & Barrier model); PUT acknowledgements raise it.
const AckFlagID FlagID = -1

// RemoteAckFlagID is the implicit flag raised by the automatic
// acknowledgements of distributed-shared-memory remote stores (S4.2).
// It is distinct from AckFlagID so DSM traffic cannot satisfy a
// PUT-level AckWait.
const RemoteAckFlagID FlagID = -2

// AtomicAckFlagID is the implicit flag raised by the acknowledgement
// of a non-fetching remote atomic (Add/Min/Max). Distinct from the
// other implicit flags so FenceAtomics counts only atomic traffic.
const AtomicAckFlagID FlagID = -3

// Flags is a cell's flag file. Flags are "normal variables specified
// in the user programs" (S4.1); the MC increments them atomically
// when the MSC+ signals DMA completion ("the MC has an incrementer,
// which can fetch and increment"). Increments may arrive from remote
// cells' delivery goroutines concurrently with the owner waiting, so
// the implementation is a monitor: an increment establishes a
// happens-before edge to the waiter exactly like the hardware's
// memory-system ordering does.
//
// The file is a run of words, like the memory it models: flag IDs
// are dense from AtomicAckFlagID (the three implicit flags, NoFlag,
// then Alloc's IDs counting up from 1), so word id-AtomicAckFlagID
// holds flag id. The words grow on demand up to denseFlags and
// ResetAll zeroes them in place, so a reused cell's flag file
// allocates nothing between jobs. An ID outside the dense range (a
// program is free to name any FlagID) lives in a lazily built
// overflow map, so no ID makes a cell allocate in proportion to it.
type Flags struct {
	mu    sync.Mutex
	cond  *sync.Cond
	words []int64          // words[id-AtomicAckFlagID], id in the dense range
	over  map[FlagID]int64 // IDs outside the dense range; nil until one is used
	next  FlagID
	// incs counts total increments, for statistics.
	incs int64
	// waitObs, when set, runs after every satisfied Wait, outside the
	// monitor lock — the sanitizer's flag-acquire hook.
	waitObs func(FlagID)
	// waitSpan, when set, runs at the start of every Wait that
	// actually blocks; the returned func runs after the wait is
	// satisfied, outside the monitor lock — the observability layer's
	// stall-timing hook. The callback is invoked under the monitor
	// lock and must not call back into Flags.
	waitSpan func(FlagID) func()
}

// denseFlags bounds the flag file's word run: IDs from
// AtomicAckFlagID up to AtomicAckFlagID+denseFlags-1 are words, any
// other ID an overflow-map entry. 4096 words (32 KiB) cover every
// program in the repository many times over.
const denseFlags = 1 << 12

// word returns flag id's word, growing the run as needed, or nil for
// an ID outside the dense range (after making sure the overflow map
// exists). Called under mu; the pointer is valid until the next call.
func (f *Flags) word(id FlagID) *int64 {
	i := int(id) - int(AtomicAckFlagID)
	if i < 0 || i >= denseFlags {
		if f.over == nil {
			f.over = make(map[FlagID]int64)
		}
		return nil
	}
	if i >= len(f.words) {
		n := min(max(2*len(f.words), i+1, 16), denseFlags)
		f.words = append(f.words, make([]int64, n-len(f.words))...)
	}
	return &f.words[i]
}

// load reads flag id without growing anything. Called under mu.
func (f *Flags) load(id FlagID) int64 {
	i := int(id) - int(AtomicAckFlagID)
	if i >= 0 && i < len(f.words) {
		return f.words[i]
	}
	return f.over[id] // a nil map reads 0
}

// add adds n to flag id. Called under mu.
func (f *Flags) add(id FlagID, n int64) {
	if w := f.word(id); w != nil {
		*w += n
		return
	}
	f.over[id] += n
}

// SetWaitObserver installs a callback invoked after each Wait call is
// satisfied. Install before traffic flows (machine construction).
func (f *Flags) SetWaitObserver(fn func(FlagID)) {
	f.mu.Lock()
	f.waitObs = fn
	f.mu.Unlock()
}

// SetWaitSpan installs a callback invoked when a Wait blocks; the
// func it returns is invoked once the wait is satisfied. Install
// before traffic flows (machine construction).
func (f *Flags) SetWaitSpan(fn func(FlagID) func()) {
	f.mu.Lock()
	f.waitSpan = fn
	f.mu.Unlock()
}

// NewFlags returns an empty flag file.
func NewFlags() *Flags {
	f := &Flags{next: 1}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Alloc reserves a fresh flag. Flags are ordinary memory words on
// the real machine, so an increment that arrives from a fast remote
// cell before the owner "allocates" the flag is legitimate and must
// not be lost: Alloc never clears an existing count.
func (f *Flags) Alloc() FlagID {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.next
	f.next++
	return id
}

// Inc increments flag id by one — the MC's fetch-and-increment. Inc
// of NoFlag is a no-op, matching the paper: "if flag addresses are
// specified as 0, MSC+ does not update the flag."
func (f *Flags) Inc(id FlagID) {
	if id == NoFlag {
		return
	}
	f.mu.Lock()
	f.add(id, 1)
	f.incs++
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Add increments flag id by n (> 0). Used by collective operations
// that complete several transfers at once.
func (f *Flags) Add(id FlagID, n int64) {
	if id == NoFlag || n == 0 {
		return
	}
	if n < 0 {
		panic("mc: negative flag add")
	}
	f.mu.Lock()
	f.add(id, n)
	f.incs += n
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Load returns the current value of flag id.
func (f *Flags) Load(id FlagID) int64 {
	if id == NoFlag {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.load(id)
}

// Reset sets flag id back to zero, the program's way of reusing a
// flag between communication phases.
func (f *Flags) Reset(id FlagID) {
	if id == NoFlag {
		return
	}
	f.mu.Lock()
	if i := int(id) - int(AtomicAckFlagID); i >= 0 && i < len(f.words) {
		f.words[i] = 0
	} else {
		delete(f.over, id) // an unused ID already reads 0
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// ResetAll clears every flag and the allocation cursor — the OS
// wiping a cell's flag file between gang-scheduled jobs. The words
// are zeroed in place, so the reset allocates nothing. The wait
// observers survive (they belong to the machine, not the job), and
// the increment total restarts so a reused cell's per-job counts
// compare bit-for-bit against a fresh machine's. Only legal while the
// cell is idle: no transfers in flight, no waiter blocked.
func (f *Flags) ResetAll() {
	f.mu.Lock()
	clear(f.words)
	clear(f.over)
	f.next = 1
	f.incs = 0
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Wait blocks until flag id reaches at least target. This is the
// "program checks the value of these flags to detect the completion
// of communications" loop (S3.1), minus the busy-wait.
func (f *Flags) Wait(id FlagID, target int64) {
	if id == NoFlag {
		return
	}
	f.mu.Lock()
	var end func()
	if f.waitSpan != nil && f.load(id) < target {
		end = f.waitSpan(id)
	}
	for f.load(id) < target {
		f.cond.Wait()
	}
	obs := f.waitObs
	f.mu.Unlock()
	if end != nil {
		end()
	}
	if obs != nil {
		obs(id)
	}
}

// Increments reports the total number of increments performed, a
// proxy for how many completion notifications the MC handled.
func (f *Flags) Increments() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.incs
}

func (f *Flags) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprintf("flags{n=%d incs=%d}", f.next-1, f.incs)
}
