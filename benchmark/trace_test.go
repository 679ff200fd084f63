package main

import "testing"

// TestSelfTimeArithmetic: a layer's self time is its own duration minus
// the calls it contains, per request, never negative.
func TestSelfTimeArithmetic(t *testing.T) {
	tr := &tracer{recording: true}
	add := func(name string, request int, start, end int64) {
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: 1, Request: request, Name: name, StartNs: start, EndNs: end})
	}
	// Request 1: segment 10, topk 600, count 200, search 1000, handle 1300.
	add(spanSegment, 1, 0, 10)
	add(spanTopK, 1, 10, 610)
	add(spanCount, 1, 610, 810)
	add(spanSearch, 1, 810, 1810)
	add(spanHandle, 1, 1810, 3110)
	// Request 2: the parts outweigh the whole (noise); self clamps to 0.
	add(spanSegment, 2, 0, 50)
	add(spanTopK, 2, 50, 950)
	add(spanCount, 2, 950, 1050)
	add(spanSearch, 2, 1050, 2050)
	add(spanHandle, 2, 2050, 3000)

	byName, self := spanStats(tr.spans)
	if got := byName[spanSearch]; len(got) != 2 || got[0] != 1000 || got[1] != 1000 {
		t.Errorf("search durations = %v", got)
	}
	if got, want := self[spanSearch], []int64{0, 190}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("search self times = %v, want %v", got, want)
	}
	if got, want := self[spanHandle], []int64{0, 300}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("handle self times = %v, want %v", got, want)
	}
}

func TestTracerRecordsNothingWhenOff(t *testing.T) {
	tr := &tracer{}
	id := tr.begin(spanSearch, 0, 1)
	tr.end(id)
	if id != 0 || len(tr.spans) != 0 {
		t.Errorf("recording off kept id %d and %d spans", id, len(tr.spans))
	}
}
