package server

import (
	"net/http"
	"time"

	"qunits/internal/loadgen"
)

// latencySet tracks one request-latency histogram per registered
// endpoint pattern in internal/loadgen's lock-free log-bucketed
// histogram, the same structure the benchmark driver's tests use as
// their bucketed reference. The map is built once at mux
// registration and read-only afterwards; the histograms themselves are
// safe for arbitrary handler concurrency.
type latencySet struct {
	hists map[string]*loadgen.Histogram
}

func newLatencySet() *latencySet {
	return &latencySet{hists: map[string]*loadgen.Histogram{}}
}

// wrap times every request to pattern into its histogram.
func (l *latencySet) wrap(pattern string, h http.HandlerFunc) http.HandlerFunc {
	hist := &loadgen.Histogram{}
	l.hists[pattern] = hist
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		hist.Record(time.Since(t0).Microseconds())
	}
}

// summaries digests every endpoint that has served at least one
// request; untouched endpoints are omitted rather than reported as
// all-zero.
func (l *latencySet) summaries() map[string]loadgen.Summary {
	out := make(map[string]loadgen.Summary)
	for p, h := range l.hists {
		if h.Count() > 0 {
			out[p] = h.Summarize()
		}
	}
	return out
}
