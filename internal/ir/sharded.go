package ir

import (
	"container/heap"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// ShardedIndex partitions a document collection across N sub-indexes so
// that scoring can run shard-parallel. Documents are assigned round-robin
// in insertion order; collection statistics (document count, document
// frequency, total length) live in one shared accumulator that every
// shard consults, so per-document scores are bitwise identical to what a
// single monolithic Index would produce. Search scores all shards
// concurrently and k-way-merges the per-shard rankings with the same
// (score desc, name asc) order the unsharded path uses.
//
// A ShardedIndex is not safe for concurrent mutation: callers that mix
// Add/Remove with Search (e.g. a live search engine) must serialize
// mutations against searches themselves — any number of goroutines may
// Search concurrently between mutations.
type ShardedIndex struct {
	shards   []*Index
	shared   *sharedStats
	names    []string       // global id -> name ("" = removed slot)
	byName   map[string]int // name -> global id
	shardOf  []int32        // global id -> shard
	localOf  []int32        // global id -> local id within shard
	globalOf [][]int        // shard -> local id -> global id
	terms    []DocTerms     // global id -> analyzed terms, retained so Remove can unwind postings and stats
}

// NewShardedIndex returns an empty index over n shards; n <= 0 means
// runtime.GOMAXPROCS(0). One shard is a valid (degenerate) configuration
// equivalent to a plain Index.
func NewShardedIndex(n int) *ShardedIndex {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &ShardedIndex{
		shards:   make([]*Index, n),
		shared:   &sharedStats{df: make(map[string]int)},
		byName:   make(map[string]int),
		globalOf: make([][]int, n),
	}
	for i := range s.shards {
		s.shards[i] = NewIndex()
		s.shards[i].shared = s.shared
	}
	return s
}

// Add analyzes and indexes a document under a unique name, returning its
// global id. Not safe for concurrent use.
func (s *ShardedIndex) Add(name string, fields ...Field) (int, error) {
	return s.AddAnalyzed(name, AnalyzeFields(fields...))
}

// MustAdd is Add that panics on error.
func (s *ShardedIndex) MustAdd(name string, fields ...Field) int {
	id, err := s.Add(name, fields...)
	if err != nil {
		panic(err)
	}
	return id
}

// AddAnalyzed indexes a pre-analyzed document under a unique name,
// returning its global id. Documents are assigned to shards round-robin
// by global id, so a fixed insertion order yields a fixed layout.
func (s *ShardedIndex) AddAnalyzed(name string, doc DocTerms) (int, error) {
	if _, dup := s.byName[name]; dup {
		return 0, fmt.Errorf("ir: document %q already indexed", name)
	}
	id := len(s.names)
	shard := id % len(s.shards)
	local, err := s.shards[shard].AddAnalyzed(name, doc)
	if err != nil {
		return 0, err
	}
	s.recordDoc(id, name, shard, local, doc)
	return id, nil
}

// Remove deletes a document from the index: its postings are unwound
// from its shard and the shared collection statistics (document count,
// document frequency, total length) are decremented, so subsequent
// searches score the collection as if the document were never added —
// up to float rounding in the running total length, which is maintained
// incrementally rather than re-summed. The document's global id slot is
// tombstoned, never reused; its name becomes free for a later Add.
func (s *ShardedIndex) Remove(name string) error {
	id, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("ir: document %q not indexed", name)
	}
	doc := s.terms[id]
	s.shards[s.shardOf[id]].removeLocal(int(s.localOf[id]), doc)
	delete(s.byName, name)
	s.names[id] = ""
	s.terms[id] = DocTerms{}
	s.shared.n--
	s.shared.totalLen -= doc.Length
	for _, tc := range doc.Terms {
		if s.shared.df[tc.Term]--; s.shared.df[tc.Term] == 0 {
			delete(s.shared.df, tc.Term)
		}
	}
	return nil
}

// AddAnalyzedDocOnly indexes a pre-analyzed document like AddAnalyzed
// but skips building its postings — the snapshot fast path: restore
// replays documents through here for names, lengths, and shared
// statistics, then installs the persisted compressed posting lists
// wholesale with ImportPostings.
func (s *ShardedIndex) AddAnalyzedDocOnly(name string, doc DocTerms) (int, error) {
	if _, dup := s.byName[name]; dup {
		return 0, fmt.Errorf("ir: document %q already indexed", name)
	}
	id := len(s.names)
	shard := id % len(s.shards)
	local, err := s.shards[shard].addDocOnly(name, doc)
	if err != nil {
		return 0, err
	}
	s.recordDoc(id, name, shard, local, doc)
	return id, nil
}

// recordDoc appends the global bookkeeping for a newly-added document.
func (s *ShardedIndex) recordDoc(id int, name string, shard, local int, doc DocTerms) {
	s.names = append(s.names, name)
	s.byName[name] = id
	s.shardOf = append(s.shardOf, int32(shard))
	s.localOf = append(s.localOf, int32(local))
	s.globalOf[shard] = append(s.globalOf[shard], id)
	s.terms = append(s.terms, doc)
	s.shared.n++
	s.shared.totalLen += doc.Length
	for _, tc := range doc.Terms {
		s.shared.df[tc.Term]++
	}
}

// AddTombstone occupies the next global slot as a removed-document
// placeholder: it counts toward Slots but not Len, owns no name, and
// appears in no posting list. Snapshot restore uses it to reproduce a
// dumped index's exact slot layout (and therefore its exact shard
// assignment and compressed posting blocks).
func (s *ShardedIndex) AddTombstone() {
	id := len(s.names)
	shard := id % len(s.shards)
	local := s.shards[shard].addTombstone()
	s.names = append(s.names, "")
	s.shardOf = append(s.shardOf, int32(shard))
	s.localOf = append(s.localOf, int32(local))
	s.globalOf[shard] = append(s.globalOf[shard], id)
	s.terms = append(s.terms, DocTerms{})
}

// ExportPostings deep-copies one shard's compressed posting lists in
// sorted term order — the persistence form the snapshot layer writes.
func (s *ShardedIndex) ExportPostings(shard int) []TermPostings {
	ix := s.shards[shard]
	terms := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	out := make([]TermPostings, len(terms))
	for i, t := range terms {
		out[i] = ix.postings[t].export(t)
	}
	return out
}

// ImportPostings installs restored posting lists into one shard,
// replacing whatever it holds, after structural validation against the
// shard's document slots and tombstones. The caller (snapshot restore)
// must have replayed the documents — via AddAnalyzedDocOnly and
// AddTombstone, in their original slot order — first.
func (s *ShardedIndex) ImportPostings(shard int, lists []TermPostings) error {
	return s.shards[shard].importPostings(lists)
}

// ImportPostingsTrusted installs posting lists whose block slices may
// alias a memory-mapped snapshot region. Only shape validation is
// performed — no per-document decoding — so restore cost is O(terms),
// not O(corpus). The caller vouches for the content (the snapshot
// layer's checksums do), and must anchor the mapping's lifetime with
// Retain before the index serves searches.
func (s *ShardedIndex) ImportPostingsTrusted(shard int, lists []TermPostings) error {
	return s.shards[shard].importPostingsTrusted(lists)
}

// Retain anchors owner (typically a snapshot mapping) to every shard:
// as long as any shard — or any plan, cursor, or compaction input that
// references one — is reachable, owner is too, so the mapped bytes the
// posting blocks alias cannot be unmapped under a search. Compaction
// builds fresh heap-backed shards, so the anchor naturally drops with
// the pre-compaction epoch.
func (s *ShardedIndex) Retain(owner any) {
	for _, shard := range s.shards {
		shard.retain = owner
	}
}

// NumShards returns the number of shards.
func (s *ShardedIndex) NumShards() int { return len(s.shards) }

// Len returns the number of live (non-removed) documents.
func (s *ShardedIndex) Len() int { return s.shared.n }

// Slots returns the size of the global id space, including tombstoned
// slots of removed documents. Iterating ids in [0, Slots) and skipping
// empty Name(id) walks the live documents in insertion order — the
// order a snapshot must preserve to rebuild an identical index.
func (s *ShardedIndex) Slots() int { return len(s.names) }

// Terms returns the analyzed form of a global document id as it was
// indexed (zero value for removed slots). The returned DocTerms shares
// its slice with the index; callers must not mutate it.
func (s *ShardedIndex) Terms(id int) DocTerms {
	if id < 0 || id >= len(s.terms) {
		return DocTerms{}
	}
	return s.terms[id]
}

// TotalLen returns the running total weighted document length of the
// collection — the numerator of AvgDocLen.
func (s *ShardedIndex) TotalLen() float64 { return s.shared.totalLen }

// ForceTotalLen overwrites the running total document length. Snapshot
// restore uses it to reproduce an engine's collection statistics
// bit-for-bit: after removals the running total is an incremental sum
// whose float rounding a fresh re-add sequence would not reproduce.
func (s *ShardedIndex) ForceTotalLen(total float64) { s.shared.totalLen = total }

// Name returns the external name of a global document id.
func (s *ShardedIndex) Name(id int) string {
	if id < 0 || id >= len(s.names) {
		return ""
	}
	return s.names[id]
}

// ID returns the global id for a document name.
func (s *ShardedIndex) ID(name string) (int, bool) {
	id, ok := s.byName[name]
	return id, ok
}

// DocLen returns the weighted length of a global document id.
func (s *ShardedIndex) DocLen(id int) float64 {
	if id < 0 || id >= len(s.names) {
		return 0
	}
	return s.shards[s.shardOf[id]].DocLen(int(s.localOf[id]))
}

// AvgDocLen returns the mean weighted document length.
func (s *ShardedIndex) AvgDocLen() float64 {
	if s.shared.n == 0 {
		return 0
	}
	return s.shared.totalLen / float64(s.shared.n)
}

// DocFreq returns the number of documents containing the term.
func (s *ShardedIndex) DocFreq(term string) int { return s.shared.df[term] }

// VocabularySize returns the number of distinct terms.
func (s *ShardedIndex) VocabularySize() int { return len(s.shared.df) }

// Search scores the query against every shard concurrently and merges
// the shard rankings into the global top k (k <= 0 means all hits). Hit
// ordering is score desc, name asc — exactly the unsharded Search order —
// and Hit.Doc carries the global document id.
//
// For k > 0 with a prunable scorer (stock BM25/TFIDF, not wrapped in
// ir.Exhaustive), each shard retrieves its top k with MaxScore pruning
// over the compressed posting lists; the per-shard result is identical
// to exhaustive scoring, so the merged ranking is too.
func (s *ShardedIndex) Search(scorer Scorer, query string, k int) []Hit {
	return s.SearchSet(scorer, query, k, ShardSet{})
}

// SearchSet is Search restricted to the shards the set selects: only
// those shards are scored and merged, so the result is the ranking over
// their documents alone — with scores identical to the full search,
// because collection statistics are shared across all shards. The zero
// set scores everything (== Search).
func (s *ShardedIndex) SearchSet(scorer Scorer, query string, k int, set ShardSet) []Hit {
	terms := Tokenize(query)
	if len(s.shards) == 1 {
		if !set.Contains(0) {
			return nil
		}
		// One shard means no parallelism to exploit: score inline and
		// skip the goroutine and merge machinery — this is exactly the
		// sequential path.
		return s.shardHits(0, scorer, terms, k)
	}
	perShard := make([][]Hit, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		if !set.Contains(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			perShard[i] = s.shardHits(i, scorer, terms, k)
		}(i)
	}
	wg.Wait()
	return mergeHits(perShard, k)
}

// shardHits retrieves one shard's ranked hits (pruned when possible,
// exhaustive otherwise), with global document ids, sorted, truncated to
// k when k > 0. The global top k is contained in the union of per-shard
// top k's, so per-shard truncation is lossless for the merge.
func (s *ShardedIndex) shardHits(i int, scorer Scorer, terms []string, k int) []Hit {
	shard := s.shards[i]
	if k > 0 {
		if ps, ok := scorer.(prunedScorer); ok {
			sc := getScratch()
			if plan, ok := ps.plan(shard, terms, sc); ok {
				hits := scoreTopKPruned(shard, plan, k, sc)
				putScratch(sc)
				for j := range hits {
					hits[j].Doc = s.globalOf[i][hits[j].Doc]
				}
				return hits
			}
			putScratch(sc)
		}
	}
	scores := scorer.Score(shard, terms)
	hits := make([]Hit, 0, len(scores))
	for local, sc := range scores {
		hits = append(hits, Hit{
			Doc:   s.globalOf[i][local],
			Name:  shard.Name(local),
			Score: sc,
		})
	}
	sortHits(hits)
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// SearchBoosted retrieves the top k documents ranked by FINAL score:
// each candidate's exact IR score is mapped through booster.Final, with
// booster.Include filtering documents out of retrieval entirely and
// ceil bounding every document's final/IR score ratio (see Booster).
// Shards run concurrently and merge on (final score desc, name asc).
// ok is false when the scorer cannot build a pruning plan (caller falls
// back to exhaustive scoring); k must be positive.
func (s *ShardedIndex) SearchBoosted(scorer Scorer, query string, k int, booster Booster, ceil float64) ([]FinalHit, bool) {
	return s.SearchBoostedSet(scorer, query, k, booster, ceil, ShardSet{})
}

// SearchBoostedSet is SearchBoosted restricted to the shards the set
// selects. Per-document final scores are identical to the full call
// (shared statistics again), so a coordinator merging per-subset pages
// under the same order reconstructs the full page exactly.
func (s *ShardedIndex) SearchBoostedSet(scorer Scorer, query string, k int, booster Booster, ceil float64, set ShardSet) ([]FinalHit, bool) {
	ps, prunable := scorer.(prunedScorer)
	if !prunable || k <= 0 {
		return nil, false
	}
	terms := Tokenize(query)
	perShard := make([][]FinalHit, len(s.shards))
	planFailed := make([]bool, len(s.shards))
	// Each shard's hits alias its goroutine's scratch (the driver's heap
	// buffer), so the scratches are held until the merge below has
	// copied the hits out, then released together.
	scratches := make([]*searchScratch, len(s.shards))
	run := func(i int) {
		sc := getScratch()
		scratches[i] = sc
		shard := s.shards[i]
		plan, ok := ps.plan(shard, terms, sc)
		if !ok {
			planFailed[i] = true
			return
		}
		hits := scoreTopKBoosted(shard, plan, k, booster, ceil, sc)
		for j := range hits {
			hits[j].Doc = s.globalOf[i][hits[j].Doc]
		}
		perShard[i] = hits
	}
	release := func() {
		for _, sc := range scratches {
			putScratch(sc)
		}
	}
	var selected []int
	for i := range s.shards {
		if set.Contains(i) {
			selected = append(selected, i)
		}
	}
	if len(selected) == 1 {
		run(selected[0])
	} else {
		var wg sync.WaitGroup
		for _, i := range selected {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i)
			}(i)
		}
		wg.Wait()
	}
	for _, failed := range planFailed {
		if failed {
			release()
			return nil, false
		}
	}
	merged := mergeFinalHits(perShard, k)
	release()
	return merged, true
}

// mergeFinalHits merges sorted per-shard FinalHit lists on the (score
// desc, name asc) order, truncated to k. Lists are tiny (each at most
// k), so repeated selection beats heap bookkeeping. k may far exceed
// the hit count (a deep-offset request), so the preallocation is
// capped at the total.
func mergeFinalHits(lists [][]FinalHit, k int) []FinalHit {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if k > total {
		k = total
	}
	pos := make([]int, len(lists))
	out := make([]FinalHit, 0, k)
	for len(out) < k {
		best := -1
		for i, l := range lists {
			if pos[i] < len(l) && (best == -1 || finalLess(lists[best][pos[best]], l[pos[i]])) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, lists[best][pos[best]])
		pos[best]++
	}
	return out
}

// ScoreNamed computes the exact IR scores of the named documents for
// the query terms — bitwise identical to the corresponding entries of
// an exhaustive Scorer.Score pass, at the cost of a few cursor seeks
// instead of a full index scan. Names that are not indexed, or contain
// no query term, map to absent entries (exactly the documents the
// exhaustive scorer would omit). ok is false when the scorer cannot
// build a pruning plan on some shard; callers then fall back to
// exhaustive scoring.
func (s *ShardedIndex) ScoreNamed(scorer Scorer, terms []string, names []string) (map[string]float64, bool) {
	return s.ScoreNamedSet(scorer, terms, names, ShardSet{})
}

// ScoreNamedSet is ScoreNamed restricted to the shards the set selects:
// named documents living on excluded shards are simply absent from the
// result map, exactly as if they contained no query term. Scores for
// the documents that are scored are identical to the full call.
func (s *ShardedIndex) ScoreNamedSet(scorer Scorer, terms []string, names []string, set ShardSet) (map[string]float64, bool) {
	ps, prunable := scorer.(prunedScorer)
	if !prunable {
		return nil, false
	}
	perShard := make([][]int, len(s.shards))
	for _, name := range names {
		id, exists := s.byName[name]
		if !exists {
			continue
		}
		sh := s.shardOf[id]
		if !set.Contains(int(sh)) {
			continue
		}
		perShard[sh] = append(perShard[sh], int(s.localOf[id]))
	}
	out := make(map[string]float64, len(names))
	// The shard loop is sequential, so one scratch serves every shard in
	// turn; scoreDocsPlanned's result aliases it, but the copy into out
	// below finishes before the next iteration reuses the buffers.
	sc := getScratch()
	for i, locals := range perShard {
		if len(locals) == 0 {
			continue
		}
		shard := s.shards[i]
		plan, ok := ps.plan(shard, terms, sc)
		if !ok {
			putScratch(sc)
			return nil, false
		}
		sort.Ints(locals)
		uniq := locals[:1]
		for _, l := range locals[1:] {
			if l != uniq[len(uniq)-1] {
				uniq = append(uniq, l)
			}
		}
		for local, score := range scoreDocsPlanned(shard, plan, uniq, sc) {
			out[shard.names[local]] = score
		}
	}
	putScratch(sc)
	return out, true
}

// CountCandidates returns the number of live documents containing at
// least one of the query terms and passing the allow filter (nil allows
// everything) — exactly the candidate set the exhaustive scorer would
// score and a pruned search may legitimately never visit. Each shard's
// candidates are the union of its term lists' doc ids, built as a
// pooled word bitset from the gap streams alone (no TFs, no score math,
// no ranking), so callers can report exact totals next to pruned top-k
// pages; see CountCandidatesSet for the per-shard steps.
func (s *ShardedIndex) CountCandidates(terms []string, allow func(name string) bool) int {
	return s.CountCandidatesSet(terms, allow, ShardSet{})
}

// CountCandidatesSet is CountCandidates restricted to the shards the
// set selects. Subsets of one Count-way division are disjoint and cover
// the index, so the per-subset counts sum to the global count.
//
// Per shard: with no filter and one distinct term present, the count is
// that list's live posting count. Otherwise every present list is OR-ed
// into the bitset — consecutive-id blocks as a bit range, the rest by
// decoding their doc-id gaps — and the set bits are counted: by
// popcount when there is no filter and the shard holds no tombstones,
// else one by one, skipping removed slots and names allow rejects.
// A warm call allocates nothing.
func (s *ShardedIndex) CountCandidatesSet(terms []string, allow func(name string) bool, set ShardSet) int {
	sc := getScratch()
	n := 0
	for si, shard := range s.shards {
		if set.Contains(si) {
			n += shard.countCandidates(terms, allow, sc)
		}
	}
	putScratch(sc)
	return n
}

// countCandidates is one shard's CountCandidatesSet, with the bitset
// borrowed from sc.
func (ix *Index) countCandidates(terms []string, allow func(name string) bool, sc *searchScratch) int {
	present := 0
	var only *postingList
	for i, t := range terms {
		if pl := ix.postings[t]; pl != nil && !slices.Contains(terms[:i], t) {
			present++
			only = pl
		}
	}
	if present == 0 {
		return 0
	}
	if present == 1 && allow == nil {
		return only.live
	}
	words := grownU64s(sc.bits, (len(ix.names)+63)>>6)
	sc.bits = words
	clear(words)
	for i, t := range terms {
		if pl := ix.postings[t]; pl != nil && !slices.Contains(terms[:i], t) {
			pl.markDocs(words)
		}
	}
	n := 0
	if allow == nil && len(ix.byName) == len(ix.names) {
		for _, w := range words {
			n += bits.OnesCount64(w)
		}
		return n
	}
	for wi, w := range words {
		for w != 0 {
			d := wi<<6 | bits.TrailingZeros64(w)
			w &= w - 1
			if ix.docLen[d] != 0 && (allow == nil || allow(ix.names[d])) {
				n++
			}
		}
	}
	return n
}

// mergeHits k-way-merges sorted per-shard hit lists, preserving the
// (score desc, name asc) order, and truncates to k when k > 0.
func mergeHits(lists [][]Hit, k int) []Hit {
	var total int
	for _, l := range lists {
		total += len(l)
	}
	if k <= 0 || k > total {
		k = total
	}
	h := make(mergeHeap, 0, len(lists))
	for i, l := range lists {
		if len(l) > 0 {
			h = append(h, mergeCursor{list: i, hit: l[0]})
		}
	}
	heap.Init(&h)
	out := make([]Hit, 0, k)
	pos := make([]int, len(lists))
	for len(out) < k && h.Len() > 0 {
		top := h[0]
		out = append(out, top.hit)
		pos[top.list]++
		if next := pos[top.list]; next < len(lists[top.list]) {
			h[0] = mergeCursor{list: top.list, hit: lists[top.list][next]}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

type mergeCursor struct {
	list int
	hit  Hit
}

// mergeHeap orders cursors best-first: higher score wins, ties broken by
// name asc — the inverse of the TopK min-heap's less.
type mergeHeap []mergeCursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].hit, h[j].hit
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Name < b.Name
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeCursor)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
