// Package trace defines the execution-trace format consumed by MLSim.
//
// The paper's methodology (S5): applications run on the real AP1000
// with probes "at entries and exits of the communication and
// synchronization library", producing per-PE event streams that MLSim
// replays under different machine parameter sets. This package is the
// Go equivalent: the functional machine's communication library calls
// a Recorder at the same points, and MLSim replays the resulting
// TraceSet.
//
// Compute durations are expressed in microseconds of AP1000 (25 MHz
// SPARC) time; MLSim scales them by each model's computation_factor.
package trace

import (
	"fmt"

	"ap1000plus/internal/topology"
)

// Kind enumerates trace event types. The names mirror Table 3's
// statistics columns (SEND, Gop, V Gop, Sync, PUT, PUTS, GET, GETS).
type Kind uint8

const (
	// KindCompute is user computation for Dur microseconds of SPARC time.
	KindCompute Kind = iota
	// KindPut is a point-to-point PUT (Items==1) or a stride PUT,
	// "PUTS" (Items>1). Size is the total payload in bytes.
	KindPut
	// KindGet is a point-to-point GET or stride GET ("GETS").
	KindGet
	// KindSend is a blocking SEND of the SEND/RECEIVE model.
	KindSend
	// KindRecv is a blocking RECEIVE matching a SEND from Peer.
	KindRecv
	// KindBarrier is a barrier synchronization over Group.
	KindBarrier
	// KindGopScalar is a global reduction of a scalar over Group.
	KindGopScalar
	// KindGopVector is a global reduction of a Size-byte vector over Group.
	KindGopVector
	// KindFlagWait blocks until local flag Flag reaches count Target.
	KindFlagWait

	numKinds
)

var kindNames = [numKinds]string{
	"compute", "put", "get", "send", "recv", "barrier", "gop", "vgop", "flagwait",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FlagID names a synchronization flag local to one PE. Flags are the
// "normal variables specified in the user programs" (S4.1) that the
// MC increments when a transfer completes. Flag identifiers are
// memory addresses in the paper's model, so the trace format carries
// them at full 64-bit width.
type FlagID int64

const (
	// NoFlag means "do not update a flag" — the paper's address-0
	// convention.
	NoFlag FlagID = 0
	// AckFlag is the implicit acknowledge flag each PE owns (S2.2),
	// incremented by PUT acknowledgements; the Ack & Barrier model
	// waits on it before entering a barrier.
	AckFlag FlagID = -1
)

// GroupID names a cell group defined in the trace metadata. Group 0
// is always "all cells".
type GroupID int32

// AllGroup is the implicit group of every cell.
const AllGroup GroupID = 0

// ReduceOp enumerates reduction operators for global operations.
type ReduceOp uint8

const (
	ReduceSum ReduceOp = iota
	ReduceMax
	ReduceMin
)

func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "sum"
	case ReduceMax:
		return "max"
	case ReduceMin:
		return "min"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Event is one trace record. Which fields are meaningful depends on
// Kind; unused fields are zero.
type Event struct {
	Kind Kind
	// Dur is compute time in microseconds of base-SPARC time (KindCompute).
	Dur float64
	// Peer is the remote PE for put/get/send/recv.
	Peer topology.CellID
	// Size is the payload size in bytes (put/get/send/recv/vgop).
	Size int64
	// Items is the stride item count; 1 for contiguous transfers.
	// Items > 1 classifies a put/get as PUTS/GETS in Table 3 terms.
	// Paper-size redistributions can exceed 2^31 elements, so the
	// count is 64-bit end to end (wire format v2).
	Items int64
	// SendFlag and RecvFlag identify the flags a put/get increments on
	// the sending and receiving side (S3.1).
	SendFlag FlagID
	RecvFlag FlagID
	// Flag and Target parameterize KindFlagWait.
	Flag   FlagID
	Target int64
	// Group selects the cell group for barrier/gop/vgop.
	Group GroupID
	// Op is the reduction operator for gop/vgop.
	Op ReduceOp
	// Ack marks a PUT that requires acknowledgement. Per S4.1 the
	// run-time system realizes this with a zero-length GET issued
	// after the PUT; MLSim models that GET, and Table 3 statistics
	// exclude it ("without GET for acknowledge").
	Ack bool
	// RTS marks operations issued by the VPP Fortran run-time system
	// (rather than directly by user C code); MLSim charges the
	// rts_op_time/rts_stride_time address-calculation costs for them.
	RTS bool
}

// String renders an event compactly for debugging and text dumps.
func (e Event) String() string {
	switch e.Kind {
	case KindCompute:
		return fmt.Sprintf("compute %.3fus", e.Dur)
	case KindPut, KindGet:
		s := fmt.Sprintf("%s peer=%d size=%d items=%d sf=%d rf=%d", e.Kind, e.Peer, e.Size, e.Items, e.SendFlag, e.RecvFlag)
		if e.Ack {
			s += " ack"
		}
		if e.RTS {
			s += " rts"
		}
		return s
	case KindSend, KindRecv:
		return fmt.Sprintf("%s peer=%d size=%d", e.Kind, e.Peer, e.Size)
	case KindBarrier:
		return fmt.Sprintf("barrier group=%d", e.Group)
	case KindGopScalar:
		return fmt.Sprintf("gop group=%d op=%s", e.Group, e.Op)
	case KindGopVector:
		return fmt.Sprintf("vgop group=%d op=%s size=%d", e.Group, e.Op, e.Size)
	case KindFlagWait:
		return fmt.Sprintf("flagwait flag=%d target=%d", e.Flag, e.Target)
	}
	return fmt.Sprintf("event(kind=%d)", e.Kind)
}

// Meta describes the machine configuration a trace was captured on.
type Meta struct {
	App    string
	PEs    int
	Width  int // torus X dimension
	Height int // torus Y dimension
	// Groups lists cell groups referenced by barrier/gop events.
	// Groups[0] must be all cells. Indexed by GroupID.
	Groups [][]topology.CellID
}

// TraceSet is a complete capture: one event stream per PE.
type TraceSet struct {
	Meta Meta
	PE   [][]Event
}

// New creates an empty TraceSet for an app on a W x H machine, with
// group 0 pre-defined as all cells.
func New(app string, w, h int) *TraceSet {
	n := w * h
	all := make([]topology.CellID, n)
	for i := range all {
		all[i] = topology.CellID(i)
	}
	return &TraceSet{
		Meta: Meta{App: app, PEs: n, Width: w, Height: h, Groups: [][]topology.CellID{all}},
		PE:   make([][]Event, n),
	}
}

// AddGroup registers a cell group and returns its GroupID.
func (ts *TraceSet) AddGroup(members []topology.CellID) GroupID {
	ts.Meta.Groups = append(ts.Meta.Groups, append([]topology.CellID(nil), members...))
	return GroupID(len(ts.Meta.Groups) - 1)
}

// Group returns the members of a group.
func (ts *TraceSet) Group(id GroupID) []topology.CellID {
	return ts.Meta.Groups[id]
}

// Events reports the total number of events across all PEs.
func (ts *TraceSet) Events() int {
	n := 0
	for _, pe := range ts.PE {
		n += len(pe)
	}
	return n
}

// Validate checks structural invariants: PE count matches metadata,
// peers and groups are in range, sizes non-negative, group 0 is all
// cells, no group lists a member twice, and only members of a group
// issue its collectives — so a collective completes exactly when as
// many PEs as the group has members have arrived.
func (ts *TraceSet) Validate() error {
	if ts.Meta.PEs != ts.Meta.Width*ts.Meta.Height {
		return fmt.Errorf("trace: PEs %d != %dx%d", ts.Meta.PEs, ts.Meta.Width, ts.Meta.Height)
	}
	if len(ts.PE) != ts.Meta.PEs {
		return fmt.Errorf("trace: %d streams for %d PEs", len(ts.PE), ts.Meta.PEs)
	}
	if len(ts.Meta.Groups) == 0 || len(ts.Meta.Groups[0]) != ts.Meta.PEs {
		return fmt.Errorf("trace: group 0 must contain all %d cells", ts.Meta.PEs)
	}
	// listedBy[m] == gi+1 once group gi has listed member m.
	listedBy := make([]int, ts.Meta.PEs)
	for gi, g := range ts.Meta.Groups {
		if len(g) == 0 {
			return fmt.Errorf("trace: group %d empty", gi)
		}
		for _, m := range g {
			if int(m) < 0 || int(m) >= ts.Meta.PEs {
				return fmt.Errorf("trace: group %d member %d out of range", gi, m)
			}
			if listedBy[m] == gi+1 {
				return fmt.Errorf("trace: group %d lists member %d twice", gi, m)
			}
			listedBy[m] = gi + 1
		}
	}
	// Group 0 holds every PE once, so only the other groups need a
	// membership set, built when a collective first names the group.
	var members [][]uint64
	isMember := func(g GroupID, pe int) bool {
		if members == nil {
			members = make([][]uint64, len(ts.Meta.Groups))
		}
		set := members[g]
		if set == nil {
			set = make([]uint64, (ts.Meta.PEs+63)/64)
			for _, m := range ts.Meta.Groups[g] {
				set[m/64] |= 1 << (m % 64)
			}
			members[g] = set
		}
		return set[pe/64]&(1<<(pe%64)) != 0
	}
	for pe, evs := range ts.PE {
		for i := range evs {
			e := &evs[i]
			if e.Kind >= numKinds {
				return fmt.Errorf("trace: pe %d event %d: bad kind %d", pe, i, e.Kind)
			}
			if e.Size < 0 || e.Dur < 0 {
				return fmt.Errorf("trace: pe %d event %d: negative size/dur", pe, i)
			}
			switch e.Kind {
			case KindPut, KindGet, KindSend, KindRecv:
				if int(e.Peer) < 0 || int(e.Peer) >= ts.Meta.PEs {
					return fmt.Errorf("trace: pe %d event %d: peer %d out of range", pe, i, e.Peer)
				}
				if (e.Kind == KindPut || e.Kind == KindGet) && e.Items < 1 {
					return fmt.Errorf("trace: pe %d event %d: items %d < 1", pe, i, e.Items)
				}
			case KindBarrier, KindGopScalar, KindGopVector:
				if int(e.Group) < 0 || int(e.Group) >= len(ts.Meta.Groups) {
					return fmt.Errorf("trace: pe %d event %d: group %d undefined", pe, i, e.Group)
				}
				if e.Group != AllGroup && !isMember(e.Group, pe) {
					return fmt.Errorf("trace: pe %d event %d: %s on group %d, which pe %d is not a member of", pe, i, e.Kind, e.Group, pe)
				}
			}
		}
	}
	return nil
}

// Recorder appends events for one PE. Each PE goroutine owns its own
// Recorder, so no locking is needed — streams are merged by index.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty per-PE recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Events returns the recorded stream.
func (r *Recorder) Events() []Event { return r.events }

// Compute records user computation of dur microseconds (base SPARC).
// Zero and negative durations are dropped. Consecutive compute events
// are merged, which keeps traces compact when numeric kernels call
// the work model in a loop.
func (r *Recorder) Compute(dur float64) {
	if dur <= 0 {
		return
	}
	if n := len(r.events); n > 0 && r.events[n-1].Kind == KindCompute {
		r.events[n-1].Dur += dur
		return
	}
	r.events = append(r.events, Event{Kind: KindCompute, Dur: dur})
}

// Put records a PUT of size bytes to peer; items > 1 makes it a
// stride PUT.
func (r *Recorder) Put(peer topology.CellID, size, items int64, sendFlag, recvFlag FlagID, ack, rts bool) {
	r.events = append(r.events, Event{
		Kind: KindPut, Peer: peer, Size: size, Items: items,
		SendFlag: sendFlag, RecvFlag: recvFlag, Ack: ack, RTS: rts,
	})
}

// Get records a GET of size bytes from peer; items > 1 makes it a
// stride GET.
func (r *Recorder) Get(peer topology.CellID, size, items int64, sendFlag, recvFlag FlagID, rts bool) {
	r.events = append(r.events, Event{
		Kind: KindGet, Peer: peer, Size: size, Items: items,
		SendFlag: sendFlag, RecvFlag: recvFlag, RTS: rts,
	})
}

// Send records a blocking SEND.
func (r *Recorder) Send(peer topology.CellID, size int64, rts bool) {
	r.events = append(r.events, Event{Kind: KindSend, Peer: peer, Size: size, RTS: rts})
}

// Recv records a blocking RECEIVE of a message from peer.
func (r *Recorder) Recv(peer topology.CellID, size int64, rts bool) {
	r.events = append(r.events, Event{Kind: KindRecv, Peer: peer, Size: size, RTS: rts})
}

// Barrier records a barrier over group.
func (r *Recorder) Barrier(group GroupID) {
	r.events = append(r.events, Event{Kind: KindBarrier, Group: group})
}

// GopScalar records a scalar global reduction over group.
func (r *Recorder) GopScalar(group GroupID, op ReduceOp) {
	r.events = append(r.events, Event{Kind: KindGopScalar, Group: group, Op: op, Size: 8})
}

// GopVector records a size-byte vector global reduction over group.
func (r *Recorder) GopVector(group GroupID, op ReduceOp, size int64) {
	r.events = append(r.events, Event{Kind: KindGopVector, Group: group, Op: op, Size: size})
}

// FlagWait records blocking until flag reaches target.
func (r *Recorder) FlagWait(flag FlagID, target int64) {
	r.events = append(r.events, Event{Kind: KindFlagWait, Flag: flag, Target: target})
}
