package ir

import (
	"testing"
)

// The zero-allocation scrub: the pruned top-k hot path reuses pooled
// per-query scratch (qtf map, plan terms, cursors, bound buffers, heap
// backing), so a steady-state search allocates only what it must hand
// back to the caller — the tokenized query and the result slice. These
// tests pin that property; the benchmark below is the input to the
// benchcheck -allocs CI gate.

// allocBudgetSearch is the steady-state allocation ceiling for one
// three-term pruned Search(k=10) on a warm scratch pool. The remaining
// allocations are the caller-owned results (Tokenize's per-token
// strings and term slice, the returned []Hit) and one contribution
// closure per query term in plan construction — those capture the
// term's idf, so they cannot be pooled. Measured floor is 11; anything
// above the budget means per-query buffers stopped being reused.
const allocBudgetSearch = 12

func TestPrunedSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	ix := benchTopKIndex(8000, 1)
	scorer := BM25{B: 0.3}
	const query = "t001 t005 t150"
	// Warm the scratch pool and page in the postings.
	for i := 0; i < 4; i++ {
		ix.Search(scorer, query, 10)
	}
	shard := ix.shards[0]
	got := testing.AllocsPerRun(50, func() {
		Search(shard, scorer, query, 10)
	})
	if got > allocBudgetSearch {
		t.Errorf("pruned Search allocates %.1f objects/op, budget %d", got, allocBudgetSearch)
	}
}

func TestShardedSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	ix := benchTopKIndex(8000, 1)
	scorer := BM25{B: 0.3}
	const query = "t001 t005 t150"
	for i := 0; i < 4; i++ {
		ix.Search(scorer, query, 10)
	}
	// The single-shard path reuses the same scratch, so it stays inside
	// the same budget as the unsharded search.
	budget := float64(allocBudgetSearch)
	got := testing.AllocsPerRun(50, func() {
		ix.Search(scorer, query, 10)
	})
	if got > budget {
		t.Errorf("sharded pruned Search allocates %.1f objects/op, budget %.0f", got, budget)
	}
}

// TestCountCandidatesAllocs pins the exact-total count at zero
// allocations once the scratch pool is warm: the term dedupe is inline
// and the candidate bitset is pooled. Both counting paths run —
// popcount (no filter) and per-bit with a filter — across three shards
// and a shard subset.
func TestCountCandidatesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	ix := benchTopKIndex(8000, 3)
	terms := Tokenize("t001 t005 t150 t005")
	allow := func(name string) bool { return name[len(name)-1] != '7' }
	count := func() {
		ix.CountCandidates(terms, nil)
		ix.CountCandidates(terms, allow)
		ix.CountCandidatesSet(terms, nil, ShardSet{Index: 1, Count: 2})
	}
	for i := 0; i < 4; i++ {
		count()
	}
	if got := testing.AllocsPerRun(50, count); got != 0 {
		t.Errorf("CountCandidatesSet allocates %.1f objects/op, want 0", got)
	}
}

// BenchmarkTopKAllocs is the benchcheck allocation gate's input: run
// with -benchmem, its allocs/op metric is floored by
// cmd/benchcheck -allocs in make bench-regression.
func BenchmarkTopKAllocs(b *testing.B) {
	ix := benchTopKIndex(8000, 1)
	scorer := BM25{B: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(scorer, "t001 t005 t150", 10)
	}
}
