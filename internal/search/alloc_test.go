//go:build !race

package search

import (
	"context"
	"testing"
)

// allocBudgetEngineSearch is the steady-state allocation ceiling for
// one pruned Engine.Search page (k = 10, no filter) over two shards —
// segmentation, type affinity, anchor scoring, the exact total, the
// boosted top-k walk and the response — on a warm scratch pool. It is
// the measured floor (the exact total contributes nothing), so a
// per-query buffer that stops being reused on any layer shows here.
const allocBudgetEngineSearch = 167

func TestEngineSearchAllocs(t *testing.T) {
	// The shard count is fixed because each shard's scoring goroutine
	// allocates.
	e := buildWith(t, Options{Shards: 2})
	ctx := context.Background()
	req := Request{Query: "star wars cast", K: 10}
	for i := 0; i < 4; i++ {
		if _, err := e.Search(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		e.Search(ctx, req)
	})
	if got > allocBudgetEngineSearch {
		t.Errorf("pruned Engine.Search allocates %.0f objects/op, budget %d", got, allocBudgetEngineSearch)
	}
}
