// Package loadgen is the lock-free histogram shared by /stats and the
// benchmark: internal/server records per-endpoint service times into it
// for GET /stats, and the benchmark driver's tests hold its bucketed
// quantiles against their raw-sample recorder. Traffic itself comes
// from the benchmark driver (benchmark/).
package loadgen

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// The histogram covers [0, 2^63) with power-of-two major buckets split
// into 16 linear sub-buckets — the classic HDR layout. Relative quantile
// error is bounded by 1/16 ≈ 6%, constant memory, and recording is two
// atomic adds, so concurrent workers and request handlers share one
// histogram without locks.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits) * subBuckets
)

// Histogram is a fixed-size, lock-free latency histogram. The zero value
// is ready to use. Units are the caller's choice; everything in this
// repo records microseconds.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the exact mean of the recorded observations.
func (h *Histogram) Mean() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / n
}

// Max returns the exact maximum recorded observation.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) with
// at most one sub-bucket (~6%) of relative error. Concurrent Records
// move the answer, as with any live histogram.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			v := bucketMax(i)
			if m := h.max.Load(); v > m {
				v = m
			}
			return v
		}
	}
	return h.max.Load()
}

// Summary is a point-in-time digest of a histogram, in the unit the
// caller recorded (microseconds throughout this repo). It is the shape
// GET /stats carries under latency_us.
type Summary struct {
	Count int64 `json:"count"`
	Mean  int64 `json:"mean_us"`
	P50   int64 `json:"p50_us"`
	P95   int64 `json:"p95_us"`
	P99   int64 `json:"p99_us"`
	P999  int64 `json:"p999_us"`
	Max   int64 `json:"max_us"`
}

// Summarize digests the histogram's current state.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// bucketIndex maps a value to its bucket: values below subBuckets map
// exactly, larger values go to (major = bit length, sub = next subBits
// bits), which lines up continuously with the exact region.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	m := bits.Len64(uint64(v))
	shift := uint(m - subBits - 1)
	sub := int((uint64(v) >> shift) & (subBuckets - 1))
	return (m-subBits)*subBuckets + sub
}

// bucketMax returns the largest value a bucket can hold — the
// conservative end, so reported quantiles never understate.
func bucketMax(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	g := idx / subBuckets
	sub := idx % subBuckets
	return int64(subBuckets+sub+1)<<uint(g-1) - 1
}
