package main

import (
	"math"
	"slices"
	"time"
)

// numSlices is how many equal slices a measured window is cut into for
// the within-run qps spread (4 s each at the default 20 s window).
const numSlices = 5

// clientRecorder holds what one client goroutine observed. Each client
// owns its recorder, so recording takes no lock and shares no cache
// line; the samples are raw nanosecond latencies, not buckets, so a
// quantile is an observed value and resolves any shift the clock does.
type clientRecorder struct {
	latencies []int64          // one per /v1/search request completed inside the window
	perSlice  [numSlices]int64 // answered operations by completion slice
	attempted int64
	failed    int64
}

// record notes one operation that completed `at` after the window
// opened. Operations completing outside [0, window) are not recorded.
// weight is the number of operations the request carried (a 32-item
// batch carries 32); search marks requests whose latency is sampled.
func (c *clientRecorder) record(at, window, latency time.Duration, weight int64, search, ok bool) {
	if at < 0 || at >= window {
		return
	}
	c.attempted += weight
	if !ok {
		c.failed += weight
		return
	}
	c.perSlice[int(at*numSlices/window)] += weight
	if search {
		c.latencies = append(c.latencies, int64(latency))
	}
}

// windowSummary is the merged view of every client's recorder.
type windowSummary struct {
	Samples   int       // latency samples behind the three quantiles
	P50Ms     float64   // exact median
	P95Ms     float64   // exact 95th percentile
	P99Ms     float64   // exact 99th percentile
	QPS       float64   // answered operations per second of window
	SliceQPS  []float64 // the same, per slice
	Attempted int64
	Failed    int64
}

func summarize(clients []*clientRecorder, window time.Duration) windowSummary {
	var s windowSummary
	var all []int64
	var perSlice [numSlices]int64
	for _, c := range clients {
		all = append(all, c.latencies...)
		s.Attempted += c.attempted
		s.Failed += c.failed
		for i, n := range c.perSlice {
			perSlice[i] += n
		}
	}
	slices.Sort(all)
	s.Samples = len(all)
	s.P50Ms = quantile(all, 0.50) / 1e6
	s.P95Ms = quantile(all, 0.95) / 1e6
	s.P99Ms = quantile(all, 0.99) / 1e6
	var answered int64
	sliceSeconds := window.Seconds() / numSlices
	for _, n := range perSlice {
		answered += n
		s.SliceQPS = append(s.SliceQPS, float64(n)/sliceSeconds)
	}
	s.QPS = float64(answered) / window.Seconds()
	return s
}

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q of the samples at or below it.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank])
}

// medianOf returns the median of a small unsorted set of measurements
// (the mean of the middle pair for an even count).
func medianOf(values []float64) float64 {
	v := slices.Sorted(slices.Values(values))
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// drift is the relative qps change from the first slice to the last;
// a drift beyond the qps bound means the run was still warming.
func drift(sliceQPS []float64) float64 {
	if len(sliceQPS) < 2 || sliceQPS[0] == 0 {
		return 0
	}
	return (sliceQPS[len(sliceQPS)-1] - sliceQPS[0]) / sliceQPS[0]
}

// spread is (max - min) / median of repeated measurements within one
// run: the qps of the window's slices, or the boots behind setup_s.
func spread(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	med := medianOf(values)
	if med == 0 {
		return 0
	}
	return (hi - lo) / med
}
