package ir

import "sync"

// searchScratch pools the per-query transient state of the pruned
// retrieval path: the query term-frequency map and sorted-term buffer
// the plan builders fold the query into, the plan-term slice itself,
// the cursor/order/bound buffers of the MaxScore driver, the top-k
// heap backing array, the named-document score accumulator, and the
// candidate-count bitset. Without it every search allocated each of
// these afresh — the dominant allocation cost of a k<=10 page — and the
// duplicate qtf construction in the two plan builders doubled the map
// churn.
//
// A scratch is single-goroutine property: every slice or map handed
// out by a plan or driver aliases it, so callers must copy anything
// that outlives the query (scoreTopKPruned copies into []Hit; the
// boosted shard path holds its scratch until the merge has copied)
// and must not release the scratch before then. A nil *searchScratch
// is accepted everywhere and means "allocate fresh" — the multi-query
// driver uses that, because it keeps every query's plan alive at once.
type searchScratch struct {
	qtf     map[string]float64
	terms   []string
	plans   []planTerm
	cursors []termCursor
	order   []int
	cum     []float64
	suffix  []float64
	heap    []FinalHit
	raw     map[int]float64
	bits    []uint64
}

var scratchPool = sync.Pool{New: func() any {
	return &searchScratch{
		qtf: make(map[string]float64, 8),
		raw: make(map[int]float64, 16),
	}
}}

// getScratch takes a scratch from the pool.
func getScratch() *searchScratch { return scratchPool.Get().(*searchScratch) }

// putScratch returns a scratch to the pool. The caller must have
// copied out everything it still needs — every buffer the scratch
// owns may be overwritten by the next query.
func putScratch(sc *searchScratch) {
	if sc != nil {
		scratchPool.Put(sc)
	}
}

// grownInts returns buf resized to length n, reallocating only when
// its capacity is short; a nil buf always allocates.
func grownInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// grownF64s is grownInts for float64 buffers.
func grownF64s(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// grownU64s is grownInts for bitset words.
func grownU64s(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
