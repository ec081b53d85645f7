package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSpanSelfTime builds a span tree by hand and checks that self
// time is duration minus the union of the children's cover, with
// children on other tracks, overlapping each other and sticking out of
// the parent.
//
//	driver  iteration [0,100)
//	cell 1    burst [10,60)   { issue [10,30)  wait [30,55) }
//	cell 2    burst [40,120)  (overlaps cell 1's burst; clipped at 100)
func TestSpanSelfTime(t *testing.T) {
	r := newRecorder()
	drv, c1, c2 := r.newTrack(), r.newTrack(), r.newTrack()
	add := func(tr *track, name string, start, end int64, parent spanID) spanID {
		tr.spans = append(tr.spans, span{name: name, start: start, end: end, parent: parent, iter: 7})
		return spanID{tr.id, int32(len(tr.spans) - 1)}
	}
	iter := add(drv, "iteration", 0, 100, noSpan)
	b1 := add(c1, "burst", 10, 60, iter)
	add(c1, "issue", 10, 30, b1)
	add(c1, "wait", 30, 55, b1)
	add(c2, "burst", 40, 120, iter)

	tot := r.totals()
	want := map[string]spanTotals{
		// Children cover [10,60) and [40,100): the union is [10,100).
		"iteration": {count: 1, total: 100, self: 10},
		// burst 1: 50 - (20 + 25) = 5; burst 2 has no children: 80.
		"burst": {count: 2, total: 130, self: 85},
		"issue": {count: 1, total: 20, self: 20},
		"wait":  {count: 1, total: 25, self: 25},
	}
	for name, w := range want {
		if got := tot[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
	if got := r.durations("burst"); len(got) != 2 || got[0]+got[1] != 130 {
		t.Errorf("durations(burst) = %v", got)
	}

	var buf bytes.Buffer
	if err := r.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("%d trace events, want 5", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Args["iter"] != float64(7) {
			t.Errorf("event %+v: want a complete slice tagged iter 7", e)
		}
	}
}

// TestTrackNesting checks the live recording path: nested begin/end on
// one track parent automatically, the outermost span takes the caller's
// parent, and a nil track is a no-op.
func TestTrackNesting(t *testing.T) {
	r := newRecorder()
	drv, cell := r.newTrack(), r.newTrack()
	root := drv.begin("iteration", 3, noSpan)
	outer := cell.begin("burst", 3, root)
	inner := cell.begin("issue", 3, noSpan)
	cell.end()
	cell.end()
	drv.end()
	if got := cell.spans[outer.idx].parent; got != root {
		t.Errorf("burst parent = %v, want %v", got, root)
	}
	if got := cell.spans[inner.idx].parent; got != outer {
		t.Errorf("issue parent = %v, want %v", got, outer)
	}
	for _, s := range append(append([]span(nil), drv.spans...), cell.spans...) {
		if s.end < s.start {
			t.Errorf("span %s not closed", s.name)
		}
	}
	var none *track
	if id := none.begin("x", 0, noSpan); id != noSpan {
		t.Errorf("nil track begin = %v", id)
	}
	none.end()
	var norec *recorder
	if norec.newTrack() != nil || len(norec.totals()) != 0 {
		t.Error("nil recorder must be inert")
	}
}
