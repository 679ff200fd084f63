package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// --- compressed posting-list mechanics --------------------------------------

// TestBlockEncodingRoundTrip appends enough postings to span several
// blocks and checks the cursor walks back exactly what went in, and
// that seek lands on the right postings when skipping whole blocks.
func TestBlockEncodingRoundTrip(t *testing.T) {
	ix := NewIndex()
	pl := &postingList{}
	var docs []int
	var tfs []float64
	d := 0
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 3*blockSize+17; i++ {
		d += 1 + r.Intn(9)
		tf := 0.5 + float64(r.Intn(6))
		docs = append(docs, d)
		tfs = append(tfs, tf)
		pl.add(d, tf, 10)
	}
	// The cursor consults docLen for tombstones; mark every id live.
	ix.docLen = make([]float64, d+1)
	for _, doc := range docs {
		ix.docLen[doc] = 10
	}
	i := 0
	for c := newCursor(ix, pl); !c.done; c.next() {
		if c.doc != docs[i] || c.tf != tfs[i] {
			t.Fatalf("posting %d: got (%d,%v), want (%d,%v)", i, c.doc, c.tf, docs[i], tfs[i])
		}
		i++
	}
	if i != len(docs) {
		t.Fatalf("cursor yielded %d postings, want %d", i, len(docs))
	}
	if got := len(pl.blocks); got != (len(docs)+blockSize-1)/blockSize {
		t.Fatalf("block count = %d for %d postings", got, len(docs))
	}
	// Seek to each doc id and to the gaps between them.
	for trial := 0; trial < 200; trial++ {
		target := r.Intn(d + 3)
		want := -1
		for j, doc := range docs {
			if doc >= target {
				want = j
				break
			}
		}
		c := newCursor(ix, pl)
		c.seek(target)
		if want == -1 {
			if !c.done {
				t.Fatalf("seek(%d): got doc %d, want exhausted", target, c.doc)
			}
		} else if c.done || c.doc != docs[want] || c.tf != tfs[want] {
			t.Fatalf("seek(%d): got (%v,%d), want doc %d", target, c.done, c.doc, docs[want])
		}
	}
}

// TestCursorSkipsTombstones tombstones alternating documents and checks
// cursors and Postings never surface them, while block metadata keeps
// its stale (but safe) maxima.
func TestCursorSkipsTombstones(t *testing.T) {
	ix := NewShardedIndex(1)
	for i := 0; i < 2*blockSize; i++ {
		// Even docs carry the highest TF so tombstoning them leaves the
		// block MaxTF stale.
		w := 1.0
		if i%2 == 0 {
			w = 7
		}
		ix.MustAdd(fmt.Sprintf("doc%03d", i), Field{Text: "shared", Weight: w})
	}
	for i := 0; i < 2*blockSize; i += 2 {
		if err := ix.Remove(fmt.Sprintf("doc%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	shard := ix.shards[0]
	pl := shard.postings["shared"]
	if pl.live != blockSize {
		t.Fatalf("live = %d, want %d", pl.live, blockSize)
	}
	for c := newCursor(shard, pl); !c.done; c.next() {
		if c.doc%2 == 0 {
			t.Fatalf("cursor surfaced tombstoned doc %d", c.doc)
		}
		if c.tf != 1 {
			t.Fatalf("doc %d tf = %v", c.doc, c.tf)
		}
	}
	// Stale block metadata: the removed docs' TF 7 still backs MaxTF —
	// an overestimate, which is the safe direction for an upper bound.
	for _, b := range pl.blocks {
		if b.MaxTF != 7 {
			t.Fatalf("block MaxTF = %v, want stale 7", b.MaxTF)
		}
	}
	if got := len(shard.Postings("shared")); got != blockSize {
		t.Fatalf("Postings returned %d entries, want %d", got, blockSize)
	}
}

func TestTopKThreshold(t *testing.T) {
	tk := NewTopK(2)
	if _, ok := tk.Threshold(); ok {
		t.Fatal("empty accumulator reported a threshold")
	}
	tk.Offer(Hit{Name: "a", Score: 3})
	if _, ok := tk.Threshold(); ok {
		t.Fatal("non-full accumulator reported a threshold")
	}
	tk.Offer(Hit{Name: "b", Score: 1})
	if th, ok := tk.Threshold(); !ok || th != 1 {
		t.Fatalf("threshold = %v,%v, want 1,true", th, ok)
	}
	tk.Offer(Hit{Name: "c", Score: 2})
	if th, _ := tk.Threshold(); th != 2 {
		t.Fatalf("threshold after eviction = %v, want 2", th)
	}
}

// --- pruned ≡ exhaustive parity ---------------------------------------------

// parityScorers are every stock scorer configuration the engine can run.
var parityScorers = []Scorer{BM25{}, BM25{B: 0.3}, BM25{K1: 0.9, B: 1}, TFIDF{}}

// assertHitsIdentical requires bitwise-equal rankings: same documents,
// same names, same float64 score bits, same order.
func assertHitsIdentical(t *testing.T, label string, pruned, oracle []Hit) {
	t.Helper()
	if len(pruned) != len(oracle) {
		t.Fatalf("%s: %d hits pruned vs %d exhaustive\npruned: %v\noracle: %v", label, len(pruned), len(oracle), pruned, oracle)
	}
	for i := range pruned {
		if pruned[i] != oracle[i] {
			t.Fatalf("%s: hit %d differs\npruned: %+v\noracle: %+v", label, i, pruned[i], oracle[i])
		}
	}
}

// randomCorpusWords builds a small vocabulary with a skewed frequency
// profile so queries mix stop-word-like and rare terms.
func randomCorpusWords() []string {
	words := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		words = append(words, fmt.Sprintf("w%02d", i))
	}
	return words
}

func randomDoc(r *rand.Rand, words []string) []Field {
	n := 1 + r.Intn(25)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		// Skew toward low word ids: w00..w07 behave like stop words.
		w := words[r.Intn(len(words))]
		if r.Intn(2) == 0 {
			w = words[r.Intn(8)]
		}
		sb.WriteString(w)
		sb.WriteByte(' ')
	}
	fields := []Field{{Text: sb.String(), Weight: []float64{1, 2, 3}[r.Intn(3)]}}
	if r.Intn(3) == 0 {
		fields = append(fields, Field{Text: words[r.Intn(len(words))], Weight: 0.5})
	}
	return fields
}

func randomQuery(r *rand.Rand, words []string) string {
	n := 1 + r.Intn(5)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[r.Intn(len(words))]
	}
	return strings.Join(parts, " ")
}

// TestPrunedParityRandom is the core property test: over randomized
// corpora, shard counts, scorers, queries and k values, pruned top-k
// retrieval must be bitwise identical to the exhaustive oracle.
func TestPrunedParityRandom(t *testing.T) {
	words := randomCorpusWords()
	for trial := 0; trial < 30; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		shards := 1 + r.Intn(3)
		ix := NewShardedIndex(shards)
		nDocs := 5 + r.Intn(300)
		for i := 0; i < nDocs; i++ {
			ix.MustAdd(fmt.Sprintf("doc%04d", i), randomDoc(r, words)...)
		}
		for q := 0; q < 15; q++ {
			query := randomQuery(r, words)
			for _, scorer := range parityScorers {
				for _, k := range []int{1, 2, 3, 10, nDocs / 2, nDocs + 5} {
					if k <= 0 {
						continue
					}
					pruned := ix.Search(scorer, query, k)
					oracle := ix.Search(Exhaustive{S: scorer}, query, k)
					label := fmt.Sprintf("trial %d shards=%d scorer=%s q=%q k=%d", trial, shards, scorer.Name(), query, k)
					assertHitsIdentical(t, label, pruned, oracle)
				}
			}
		}
	}
}

// TestPrunedParityWithMutations interleaves Remove and re-Add with
// queries: tombstoned postings and stale block metadata must never
// change pruned results relative to the oracle.
func TestPrunedParityWithMutations(t *testing.T) {
	words := randomCorpusWords()
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(9000 + trial)))
		ix := NewShardedIndex(1 + r.Intn(3))
		names := make([]string, 0, 200)
		next := 0
		add := func() {
			name := fmt.Sprintf("doc%04d", next)
			next++
			ix.MustAdd(name, randomDoc(r, words)...)
			names = append(names, name)
		}
		for i := 0; i < 60; i++ {
			add()
		}
		for step := 0; step < 40; step++ {
			switch r.Intn(3) {
			case 0: // remove a random live doc
				if len(names) > 1 {
					i := r.Intn(len(names))
					if err := ix.Remove(names[i]); err != nil {
						t.Fatal(err)
					}
					names = append(names[:i], names[i+1:]...)
				}
			default:
				add()
			}
			query := randomQuery(r, words)
			scorer := parityScorers[r.Intn(len(parityScorers))]
			k := 1 + r.Intn(12)
			pruned := ix.Search(scorer, query, k)
			oracle := ix.Search(Exhaustive{S: scorer}, query, k)
			label := fmt.Sprintf("trial %d step %d scorer=%s q=%q k=%d", trial, step, scorer.Name(), query, k)
			assertHitsIdentical(t, label, pruned, oracle)
		}
	}
}

// TestPrunedParityStandaloneIndex covers the unsharded ir.Search entry
// point, including multi-block lists (every doc shares one term).
func TestPrunedParityStandaloneIndex(t *testing.T) {
	words := randomCorpusWords()
	r := rand.New(rand.NewSource(5))
	ix := NewIndex()
	for i := 0; i < 3*blockSize+40; i++ {
		fields := append(randomDoc(r, words), Field{Text: "shared"})
		ix.MustAdd(fmt.Sprintf("doc%04d", i), fields...)
	}
	for q := 0; q < 40; q++ {
		query := randomQuery(r, words)
		if r.Intn(2) == 0 {
			query += " shared"
		}
		for _, scorer := range parityScorers {
			k := 1 + r.Intn(15)
			pruned := Search(ix, scorer, query, k)
			oracle := Search(ix, Exhaustive{S: scorer}, query, k)
			assertHitsIdentical(t, fmt.Sprintf("scorer=%s q=%q k=%d", scorer.Name(), query, k), pruned, oracle)
		}
	}
}

// TestPrunedFallbackTinyTFs: weights below 1/e make lnc document
// weights negative, which the TFIDF pruning bounds cannot cover — the
// plan must refuse and the search must fall back, still returning
// oracle-identical results.
func TestPrunedFallbackTinyTFs(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 30; i++ {
		ix.MustAdd(fmt.Sprintf("doc%02d", i),
			Field{Text: "alpha beta", Weight: 0.25},
			Field{Text: "gamma"},
		)
	}
	if _, ok := (TFIDF{}).plan(ix, []string{"alpha"}, nil); ok {
		t.Fatal("TFIDF plan accepted a list with tf < 1/e")
	}
	for _, scorer := range parityScorers {
		pruned := Search(ix, scorer, "alpha gamma", 5)
		oracle := Search(ix, Exhaustive{S: scorer}, "alpha gamma", 5)
		assertHitsIdentical(t, scorer.Name(), pruned, oracle)
	}
}

// countCorpus builds a three-shard index whose term lists exercise
// every shape the candidate count distinguishes: "dense" is in every
// document, so each shard's list is made of consecutive-id blocks;
// "rare" is in every 400th, so its per-shard gaps are multi-byte
// uvarints; "odd" is in every other, so its blocks are sparse; and the
// random words mix in short, irregular lists.
func countCorpus(r *rand.Rand) *ShardedIndex {
	words := randomCorpusWords()
	ix := NewShardedIndex(3)
	for i := 0; i < 3000; i++ {
		fields := append(randomDoc(r, words), Field{Text: "dense"})
		if i%400 == 0 {
			fields = append(fields, Field{Text: "rare"})
		}
		if i%2 == 1 {
			fields = append(fields, Field{Text: "odd"})
		}
		ix.MustAdd(fmt.Sprintf("doc%04d", i), fields...)
	}
	return ix
}

// restoreTrusted rebuilds ix the way a mapped snapshot boot does:
// documents and tombstones replayed in slot order, then every shard's
// exported posting lists installed through ImportPostingsTrusted.
func restoreTrusted(t *testing.T, ix *ShardedIndex) *ShardedIndex {
	t.Helper()
	out := NewShardedIndex(ix.NumShards())
	for id := 0; id < ix.Slots(); id++ {
		if name := ix.Name(id); name == "" {
			out.AddTombstone()
		} else if _, err := out.AddAnalyzedDocOnly(name, ix.Terms(id)); err != nil {
			t.Fatal(err)
		}
	}
	for shard := 0; shard < ix.NumShards(); shard++ {
		if err := out.ImportPostingsTrusted(shard, ix.ExportPostings(shard)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCountCandidates checks the candidate count equals the exhaustive
// scorer's candidate set size — with and without a filter, on every
// shard subset, before and after removals, and on an index restored
// through the trusted (mapped) import path.
func TestCountCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ix := countCorpus(r)
	denseBlock, wideGap := false, false
	for _, b := range ix.shards[0].postings["dense"].blocks {
		denseBlock = denseBlock || b.LastDoc-b.FirstDoc+1 == b.N
	}
	for _, b := range ix.shards[0].postings["rare"].blocks {
		wideGap = wideGap || slices.ContainsFunc(b.Docs, func(c byte) bool { return c >= 0x80 })
	}
	if !denseBlock || !wideGap {
		t.Fatalf("corpus lacks a shape under test: dense block %v, multi-byte gap %v", denseBlock, wideGap)
	}
	words := randomCorpusWords()
	queries := []string{
		"dense",              // one term: the live-count shortcut
		"rare",               // multi-byte gaps
		"rare rare",          // a duplicate is still one term
		"absent",             // no list anywhere
		"absent rare absent", // absent terms drop out of the shortcut
		"odd",                // sparse blocks
		"odd rare odd",
		"dense rare",
		"w03 w17 rare w03",
	}
	for q := 0; q < 12; q++ {
		queries = append(queries, randomQuery(r, words))
	}
	allow := func(name string) bool { return strings.HasSuffix(name, "1") }
	check := func(label string, ix *ShardedIndex) {
		t.Helper()
		for _, query := range queries {
			terms := Tokenize(query)
			oracle := ix.Search(Exhaustive{S: BM25{}}, query, 0)
			if got := ix.CountCandidates(terms, nil); got != len(oracle) {
				t.Fatalf("%s q=%q: CountCandidates=%d, oracle candidates=%d", label, query, got, len(oracle))
			}
			want := 0
			for _, h := range oracle {
				if allow(h.Name) {
					want++
				}
			}
			if got := ix.CountCandidates(terms, allow); got != want {
				t.Fatalf("%s q=%q filtered: CountCandidates=%d, want %d", label, query, got, want)
			}
			for count := 2; count <= ix.NumShards(); count++ {
				sum := 0
				for i := 0; i < count; i++ {
					set := ShardSet{Index: i, Count: count}
					got := ix.CountCandidatesSet(terms, nil, set)
					if want := len(ix.SearchSet(Exhaustive{S: BM25{}}, query, 0, set)); got != want {
						t.Fatalf("%s q=%q set %+v: CountCandidatesSet=%d, oracle %d", label, query, set, got, want)
					}
					sum += got
				}
				if sum != len(oracle) {
					t.Fatalf("%s q=%q: %d-way subset counts sum to %d, want %d", label, query, count, sum, len(oracle))
				}
			}
		}
	}
	check("fresh", ix)
	check("fresh trusted restore", restoreTrusted(t, ix))
	// Tombstone every 7th document: dense blocks now hold dead ids, and
	// every shard holds tombstones, so no shard takes the popcount path.
	for i := 0; i < 3000; i += 7 {
		if err := ix.Remove(fmt.Sprintf("doc%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	check("removed", ix)
	check("removed trusted restore", restoreTrusted(t, ix))
}

// --- package microbench: the tentpole speedup -------------------------------

// benchTopKIndex builds a sharded index with Zipf-ish term frequencies
// large enough for pruning to matter.
func benchTopKIndex(nDocs, shards int) *ShardedIndex {
	words := make([]string, 200)
	for i := range words {
		words[i] = fmt.Sprintf("t%03d", i)
	}
	r := rand.New(rand.NewSource(7))
	ix := NewShardedIndex(shards)
	for i := 0; i < nDocs; i++ {
		var sb strings.Builder
		for j := 0; j < 24; j++ {
			// Zipf-ish: low ids are near-stop-words.
			w := words[r.Intn(len(words))]
			if r.Intn(3) > 0 {
				w = words[r.Intn(12)]
			}
			sb.WriteString(w)
			sb.WriteByte(' ')
		}
		ix.MustAdd(fmt.Sprintf("doc%06d", i), Field{Text: sb.String()})
	}
	return ix
}

func BenchmarkShardedTopK(b *testing.B) {
	ix := benchTopKIndex(20000, 1)
	for _, mode := range []struct {
		name   string
		scorer Scorer
	}{{"pruned", BM25{B: 0.3}}, {"exhaustive", Exhaustive{S: BM25{B: 0.3}}}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.Search(mode.scorer, "t001 t005 t150", 10)
			}
		})
	}
}
