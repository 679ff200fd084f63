package loadgen

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHistogramExactBelowSubBuckets(t *testing.T) {
	var h Histogram
	for v := int64(0); v < subBuckets; v++ {
		h.Record(v)
	}
	if got := h.Quantile(1); got != subBuckets-1 {
		t.Fatalf("max quantile = %d, want %d", got, subBuckets-1)
	}
	if h.Count() != subBuckets {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	var h Histogram
	r := rand.New(rand.NewSource(1))
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, like latencies.
		v := int64(1 << uint(r.Intn(20)))
		v += r.Int63n(v)
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		rank := int(q*float64(len(vals))) - 1
		if rank < 0 {
			rank = 0
		}
		exact := vals[rank]
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q%.3f = %d below exact %d: quantiles must not understate", q, got, exact)
		}
		if float64(got) > float64(exact)*1.072+1 {
			t.Errorf("q%.3f = %d exceeds exact %d by more than a sub-bucket", q, got, exact)
		}
	}
	if h.Max() != vals[len(vals)-1] {
		t.Errorf("max %d != exact %d", h.Max(), vals[len(vals)-1])
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				h.Record(r.Int63n(1_000_000))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count = %d, want 80000", h.Count())
	}
	if h.Quantile(0.5) <= 0 || h.Quantile(0.99) < h.Quantile(0.5) {
		t.Fatal("quantiles not monotone")
	}
}
