package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"qunits/internal/loadgen"
)

// TestQuantilesMatchSortedReference merges per-client samples and checks
// the reported quantiles against an independently sorted copy.
func TestQuantilesMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	window := 10 * time.Second
	clients := []*clientRecorder{{}, {}, {}}
	var reference []float64
	for i := 0; i < 9999; i++ {
		lat := time.Duration(math.Exp(rng.NormFloat64()*0.7) * float64(3*time.Millisecond))
		at := time.Duration(rng.Int63n(int64(window)))
		clients[i%len(clients)].record(at, window, lat, 1, true, true)
		reference = append(reference, float64(lat))
	}
	sort.Float64s(reference)
	got := summarize(clients, window)
	if got.Samples != len(reference) {
		t.Fatalf("samples = %d, want %d", got.Samples, len(reference))
	}
	for _, tc := range []struct {
		q    float64
		got  float64
		name string
	}{{0.50, got.P50Ms, "p50"}, {0.95, got.P95Ms, "p95"}, {0.99, got.P99Ms, "p99"}} {
		want := reference[int(math.Ceil(tc.q*float64(len(reference))))-1] / 1e6
		if tc.got != want {
			t.Errorf("%s = %v ms, sorted reference says %v ms", tc.name, tc.got, want)
		}
	}
	if want := float64(len(reference)) / window.Seconds(); got.QPS != want {
		t.Errorf("qps = %v, want %v", got.QPS, want)
	}
}

// TestSixPercentShiftIsVisible is why the recorder keeps raw samples: a
// 6 % latency shift moves the exact median by 6 %, while the 1/16-octave
// histogram of internal/loadgen reports the same bucket for both.
func TestSixPercentShiftIsVisible(t *testing.T) {
	window := time.Second
	measure := func(scale float64) (exactMs float64, bucketUs int64) {
		rng := rand.New(rand.NewSource(3))
		rec := &clientRecorder{}
		var hist loadgen.Histogram
		for i := 0; i < 5000; i++ {
			us := (2050 + 2*rng.Float64()) * scale // just above a power of two, where a bucket is widest
			rec.record(0, window, time.Duration(us*float64(time.Microsecond)), 1, true, true)
			hist.Record(int64(us))
		}
		// One slow request, as every real run has: the histogram caps
		// its answers at the largest value seen.
		rec.record(0, window, 50*time.Millisecond, 1, true, true)
		hist.Record(50000)
		return summarize([]*clientRecorder{rec}, window).P50Ms, hist.Quantile(0.5)
	}
	baseMs, baseBucket := measure(1)
	shiftedMs, shiftedBucket := measure(1.06)
	if ratio := shiftedMs / baseMs; ratio < 1.055 || ratio > 1.065 {
		t.Errorf("exact p50 moved by %.4f, want the 6 %% shift (%.4f ms -> %.4f ms)", ratio, baseMs, shiftedMs)
	}
	if baseBucket != shiftedBucket {
		t.Errorf("expected the bucketed histogram to hide the shift, got %d us -> %d us", baseBucket, shiftedBucket)
	}
}

func TestRecordKeepsOnlyTheWindowAndCountsWeight(t *testing.T) {
	window := 5 * time.Second
	rec := &clientRecorder{}
	rec.record(-time.Millisecond, window, time.Millisecond, 1, true, true) // warm-up
	rec.record(window, window, time.Millisecond, 1, true, true)            // after the window closed
	rec.record(0, window, time.Millisecond, 32, true, true)                // a batch, first slice
	rec.record(window-1, window, time.Millisecond, 1, false, true)         // a mutation, last slice
	rec.record(2*time.Second, window, time.Millisecond, 1, true, false)    // a failure
	got := summarize([]*clientRecorder{rec}, window)
	if got.Attempted != 34 || got.Failed != 1 || got.Samples != 1 {
		t.Fatalf("attempted, failed, samples = %d, %d, %d; want 34, 1, 1", got.Attempted, got.Failed, got.Samples)
	}
	if want := []float64{32, 0, 0, 0, 1}; !equalFloats(got.SliceQPS, want) {
		t.Errorf("slice qps = %v, want %v", got.SliceQPS, want)
	}
	if want := 33.0 / 5; got.QPS != want {
		t.Errorf("qps = %v, want %v", got.QPS, want)
	}
}

func TestDriftSpreadAndMedian(t *testing.T) {
	slices := []float64{100, 104, 96, 100, 110}
	if got := drift(slices); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("drift = %v, want 0.10", got)
	}
	if got := spread(slices); math.Abs(got-0.14) > 1e-12 {
		t.Errorf("spread = %v, want 0.14", got)
	}
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := medianOf([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
