package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// The span recorder of the traced pass. Spans are recorded from the
// benchmark's own files, around the public calls into each layer; they
// live in memory and are written as Chrome trace JSON when the run
// ends. Each goroutine that records owns one track, so recording takes
// no lock and the untraced pass (nil recorder, nil tracks) pays one
// nil check per site.

// spanID names a span across tracks; noSpan is the absent parent.
type spanID struct{ track, idx int32 }

var noSpan = spanID{-1, -1}

type span struct {
	name       string
	start, end int64 // nanoseconds since the recorder's epoch
	parent     spanID
	iter       int32 // iteration the span belongs to; spans of one iteration share it
}

// track is one goroutine's span list. Nested begin/end pairs on a
// track parent automatically; a track's outermost span takes its
// parent from the caller (the driver's iteration span, typically).
type track struct {
	rec   *recorder
	id    int32
	spans []span
	open  []int32
}

type recorder struct {
	epoch  time.Time
	tracks []*track
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newTrack adds a track. Call it from the driver before the goroutines
// that record start; tracks themselves are single-writer.
func (r *recorder) newTrack() *track {
	if r == nil {
		return nil
	}
	t := &track{rec: r, id: int32(len(r.tracks))}
	r.tracks = append(r.tracks, t)
	return t
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under parent (ignored when a span is already open
// on the track, which then is the parent).
func (t *track) begin(name string, iter int, parent spanID) spanID {
	if t == nil {
		return noSpan
	}
	if n := len(t.open); n > 0 {
		parent = spanID{t.id, t.open[n-1]}
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: t.rec.now(), parent: parent, iter: int32(iter)})
	t.open = append(t.open, idx)
	return spanID{t.id, idx}
}

// end closes the innermost open span.
func (t *track) end() {
	if t == nil || len(t.open) == 0 {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = t.rec.now()
	t.open = t.open[:n]
}

// spanTotals is the per-name aggregate of a recorded run.
type spanTotals struct {
	count int64
	total int64 // summed durations, ns
	self  int64 // summed self times, ns
}

// totals computes, per span name, the summed duration and the summed
// self time: a span's duration minus the part of its interval its
// child spans cover (children may overlap each other and sit on other
// tracks, so the cover is the union of their intervals clipped to the
// parent).
func (r *recorder) totals() map[string]spanTotals {
	out := map[string]spanTotals{}
	if r == nil {
		return out
	}
	type iv struct{ s, e int64 }
	kids := map[spanID][]iv{}
	for _, t := range r.tracks {
		for _, s := range t.spans {
			if s.parent != noSpan && s.end > s.start {
				kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
			}
		}
	}
	for _, t := range r.tracks {
		for i, s := range t.spans {
			if s.end < s.start {
				continue // never closed
			}
			dur := s.end - s.start
			cover := int64(0)
			ks := kids[spanID{t.id, int32(i)}]
			sort.Slice(ks, func(a, b int) bool { return ks[a].s < ks[b].s })
			at := s.start
			for _, k := range ks {
				from, to := max(k.s, at), min(k.e, s.end)
				if to > from {
					cover += to - from
					at = to
				}
			}
			a := out[s.name]
			a.count++
			a.total += dur
			a.self += dur - cover
			out[s.name] = a
		}
	}
	return out
}

// durations returns every closed span of one name, in nanoseconds.
func (r *recorder) durations(name string) []int64 {
	var out []int64
	if r == nil {
		return out
	}
	for _, t := range r.tracks {
		for _, s := range t.spans {
			if s.name == name && s.end >= s.start {
				out = append(out, s.end-s.start)
			}
		}
	}
	return out
}

// chromeEvent is one complete ("X") slice of the Chrome trace-event
// format (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the recorded spans as a Chrome trace.
func (r *recorder) writeChrome(w io.Writer) error {
	events := []chromeEvent{}
	if r != nil {
		for _, t := range r.tracks {
			for _, s := range t.spans {
				if s.end < s.start {
					continue
				}
				args := map[string]any{"iter": s.iter}
				if s.parent != noSpan {
					args["parent_track"] = s.parent.track
					args["parent_span"] = s.parent.idx
				}
				events = append(events, chromeEvent{
					Name: s.name, Ph: "X", Pid: 1, Tid: t.id,
					Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
					Args: args,
				})
			}
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}
