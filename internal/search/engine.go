// Package search implements the qunit-based search engine of §3. The
// pipeline is exactly the paper's: the database has been translated into
// a collection of independent qunit instances; an incoming keyword query
// is segmented and typed ("[movie.title] [cast]"); the segmentation is
// matched against qunit definitions to identify the most appropriate
// qunit type; and standard IR ranking over the instances — each treated
// as an independent document — picks the instances to return.
package search

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"qunits/internal/core"
	"qunits/internal/ir"
	"qunits/internal/segment"
)

// Options configures an engine.
type Options struct {
	// Scorer is the IR ranking function; nil means BM25 with defaults.
	Scorer ir.Scorer
	// Synonyms extends the segmentation dictionary's attribute
	// vocabulary (e.g. imdb.AttributeSynonyms()).
	Synonyms map[string]string
	// LabelWeight is the index weight of an instance's anchor label;
	// 0 means 3.
	LabelWeight float64
	// KeywordWeight is the index weight of a definition's keywords;
	// 0 means 2.
	KeywordWeight float64
	// TypeBoost scales how strongly qunit-type identification dominates
	// plain IR score; 0 means 1.
	TypeBoost float64
	// UtilityInfluence in [0,1] blends definition utility into the final
	// score; 0 means 0.35.
	UtilityInfluence float64
	// AnchorBoost multiplies the score of instances whose anchor label is
	// exactly an entity the query names — the instance-selection half of
	// §3's "qunit instances of the identified type". 0 means 2.
	AnchorBoost float64
	// Shards is the number of index shards scored in parallel per query;
	// 0 means runtime.GOMAXPROCS(0), 1 disables sharding. Results are
	// identical for every shard count.
	Shards int
	// BuildWorkers is the number of workers that materialize and analyze
	// qunit instances during engine construction; 0 means
	// runtime.GOMAXPROCS(0), 1 builds sequentially. The built engine is
	// identical for every worker count.
	BuildWorkers int
	// ExhaustiveScorer disables top-k pruned retrieval: every search
	// scores every candidate through the map-based exhaustive scorer,
	// exactly as the pre-pruning engine did. It is a debugging/oracle
	// flag: results are guaranteed (and parity-tested) to be identical
	// with it on or off, so flipping it isolates whether a suspected
	// ranking bug lives in the pruned scorer or elsewhere.
	ExhaustiveScorer bool
	// CompactRatio enables auto-compaction: after a removal leaves the
	// index's tombstone ratio (dead slots / total slots) at or above
	// this value, the engine compacts itself (see Engine.Compact).
	// 0 disables auto-compaction. This is serving policy, not engine
	// state: snapshots do not persist it, and operators re-apply it at
	// boot (qunitsd -compact-ratio) or at runtime via SetAutoCompact.
	CompactRatio float64
}

// Result is one ranked qunit instance. Score is exactly
// IRScore * TypeFactor * UtilityBlend * AnchorBoost — the component
// fields expose every factor so clients can explain (or re-derive) any
// ranking decision without knowing the engine's option values.
type Result struct {
	// Instance is the returned qunit instance.
	Instance *core.Instance
	// Score is the final combined score.
	Score float64
	// IRScore is the raw IR relevance component.
	IRScore float64
	// TypeAffinity is the qunit-type identification component.
	TypeAffinity float64
	// TypeFactor is the multiplier the type identification contributed
	// to the score: 1 + Options.TypeBoost*TypeAffinity.
	TypeFactor float64
	// Utility is the instance's utility at scoring time.
	Utility float64
	// UtilityBlend is the utility multiplier applied to the score:
	// 1 - UtilityInfluence + UtilityInfluence*Utility.
	UtilityBlend float64
	// AnchorBoost is the anchor-selection multiplier: 1 when the query
	// names no entity anchoring this instance, 1+Options.AnchorBoost
	// when it does.
	AnchorBoost float64
}

// Engine answers keyword queries over a qunit catalog.
//
// After construction the engine is safe for concurrent use: any number
// of goroutines may call Search; the mutating calls — ApplyFeedback
// (utilities), AddInstance and RemoveInstance (the instance set and
// index) — are serialized against searches by an internal lock.
type Engine struct {
	// mu guards the mutable state: instance/definition utilities
	// (ApplyFeedback writes, Search reads) and the instance map and
	// index (AddInstance/RemoveInstance write, Search reads). The
	// dictionary and segmenter are immutable after construction.
	mu        sync.RWMutex
	cat       *core.Catalog
	dict      *segment.Dictionary
	seg       *segment.Segmenter
	index     *ir.ShardedIndex
	instances map[string]*core.Instance            // by instance ID
	byLabel   map[string]map[string]*core.Instance // label -> id -> instance
	opts      Options
	defTables map[string]map[string]bool // definition -> tables it covers
	// mlog, when installed, receives one record per mutation, appended
	// under the lock serializing that mutation (see partition.go).
	mlog MutationLog

	// indexMu serializes the index-structure writers (AddInstance,
	// RemoveInstance, Compact) against each other; see compact.go for
	// the full lock protocol. Always acquired before mu.
	indexMu sync.Mutex
	// compactions and slotsReclaimed are the monotone compaction
	// counters /stats reports.
	compactions    atomic.Int64
	slotsReclaimed atomic.Int64
	// compactRatio holds the auto-compaction tombstone-ratio threshold
	// as float bits (0 = disabled); see SetAutoCompact.
	compactRatio atomic.Uint64

	// maxUtility is a monotone upper bound on every indexed instance's
	// utility, maintained on construction, AddInstance, and
	// ApplyFeedback. It only ever grows (removals never shrink it), so
	// it is always a valid — if occasionally loose — bound for the
	// pruned search path's score-multiplier ceiling.
	maxUtility float64

	// docsVersion counts the mutations that change the global-doc-id ↔
	// instance mapping (AddInstance, RemoveInstance, Compact; feedback
	// only touches utilities, which byDoc reads through the instance
	// pointer). Written under the write lock, read under either.
	docsVersion uint64
	// docCache lazily materializes the mapping as a dense slice for the
	// batch path, which resolves instances per candidate document and
	// would otherwise pay a string-map lookup each time. Rebuilt on
	// version mismatch under its own lock (readers hold only e.mu.RLock).
	docCache struct {
		mu      sync.Mutex
		version uint64
		byDoc   []*core.Instance
	}
	// affCache holds the per-definition state typeAffinity consults for
	// every query — normalized keyword vocabulary, covered tables,
	// rollup flag — which is derived entirely from the (effectively
	// immutable) definitions. Invalidated by catalog growth.
	affCache struct {
		mu   sync.Mutex
		n    int
		defs []defAffinity
	}
}

// defAffinity is one definition's precomputed type-affinity state.
type defAffinity struct {
	d      *core.Definition
	kw     map[string]bool // normalized keyword vocabulary
	tables map[string]bool // covered tables (== defTables entry)
	rollup bool            // has sections: prefers underspecified queries
}

// NewEngine materializes every instance of the catalog and indexes it.
// (The paper notes qunits need not be materialized; this engine trades
// that freedom for a standard inverted index, which is itself a
// legitimate realization — §3 only requires that ranking treat instances
// as independent documents.)
func NewEngine(cat *core.Catalog, opts Options) (*Engine, error) {
	opts = withDefaults(opts)
	workers := opts.BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	dict := segment.BuildDictionary(cat.DB(), segment.Options{AttributeSynonyms: opts.Synonyms})
	e := &Engine{
		cat:       cat,
		dict:      dict,
		seg:       segment.NewSegmenter(dict),
		index:     ir.NewShardedIndex(opts.Shards),
		instances: make(map[string]*core.Instance),
		opts:      opts,
		defTables: make(map[string]map[string]bool),
	}
	insts, err := materializeParallel(cat, workers)
	if err != nil {
		return nil, err
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("search: catalog produced no instances")
	}
	// Deduplicate in catalog order (identical anchors across remakes
	// collapse to one document), fan analysis out across the workers,
	// then merge into the index sequentially in that same order — the
	// posting lists come out identical to a sequential build.
	unique := make([]*core.Instance, 0, len(insts))
	for _, inst := range insts {
		id := inst.ID()
		if _, dup := e.instances[id]; dup {
			continue
		}
		e.instances[id] = inst
		unique = append(unique, inst)
	}
	analyzed := analyzeParallel(unique, opts, workers)
	for i, inst := range unique {
		if _, err := e.index.AddAnalyzed(inst.ID(), analyzed[i]); err != nil {
			return nil, err
		}
		e.noteUtility(inst.Utility)
		e.indexLabel(inst)
	}
	for _, d := range cat.Definitions() {
		e.defTables[d.Name] = definitionTables(d)
	}
	e.SetAutoCompact(opts.CompactRatio)
	return e, nil
}

// definitionTables collects the tables a definition's base and section
// expressions touch — the vocabulary typeAffinity credits attribute
// segments against.
func definitionTables(d *core.Definition) map[string]bool {
	tables := map[string]bool{}
	for _, tn := range d.Base.From {
		tables[tn] = true
	}
	for _, s := range d.Sections {
		for _, tn := range s.Base.From {
			tables[tn] = true
		}
	}
	return tables
}

// withDefaults fills the zero-valued options with the engine defaults —
// the single defaulting point NewEngine and RestoreEngine share, so a
// restored engine scores exactly like the one that was saved.
func withDefaults(opts Options) Options {
	if opts.Scorer == nil {
		// Gentle length normalization: qunit instances differ in length
		// by design (a profile is long because it covers more, not
		// because it is verbose), so the standard b=0.75 would
		// systematically favour thin aspect instances over rich ones.
		opts.Scorer = ir.BM25{B: 0.3}
	}
	if opts.LabelWeight == 0 {
		opts.LabelWeight = 3
	}
	if opts.KeywordWeight == 0 {
		opts.KeywordWeight = 2
	}
	if opts.TypeBoost == 0 {
		opts.TypeBoost = 1
	}
	if opts.UtilityInfluence == 0 {
		opts.UtilityInfluence = 0.35
	}
	if opts.AnchorBoost == 0 {
		opts.AnchorBoost = 2
	}
	return opts
}

// materializeParallel is cat.MaterializeCatalog with the per-definition
// evaluation fanned out across workers. The flattened result preserves
// catalog (utility) order exactly, so downstream document ids match the
// sequential build. Materialization only reads the database, which is
// immutable here, so concurrent evaluation is safe.
func materializeParallel(cat *core.Catalog, workers int) ([]*core.Instance, error) {
	defs := cat.Definitions()
	if workers > len(defs) {
		workers = len(defs)
	}
	if workers <= 1 {
		return cat.MaterializeCatalog()
	}
	perDef := make([][]*core.Instance, len(defs))
	errs := make([]error, len(defs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perDef[i], errs[i] = cat.MaterializeAll(defs[i])
			}
		}()
	}
	for i := range defs {
		next <- i
	}
	close(next)
	wg.Wait()
	var out []*core.Instance
	for i := range defs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, perDef[i]...)
	}
	return out, nil
}

// indexFields returns the IR fields one instance is indexed under.
//
// Definition keywords deliberately stay out of the instance index: they
// are type vocabulary, handled by type affinity. Indexing them would let
// every instance of a definition match its vocabulary, drowning the
// instances that actually contain the query's content. Context text
// (§2: ranking-only content) is indexed at half weight — findable, never
// presented.
func indexFields(inst *core.Instance, opts Options) []ir.Field {
	fields := []ir.Field{
		{Text: inst.Label(), Weight: opts.LabelWeight},
		{Text: inst.Rendered.Text, Weight: 1},
	}
	if inst.ContextText != "" {
		fields = append(fields, ir.Field{Text: inst.ContextText, Weight: 0.5})
	}
	return fields
}

// analyzeParallel tokenizes every instance's fields across workers,
// returning the analyses positionally aligned with insts.
func analyzeParallel(insts []*core.Instance, opts Options, workers int) []ir.DocTerms {
	out := make([]ir.DocTerms, len(insts))
	if workers <= 1 || len(insts) < 2 {
		for i, inst := range insts {
			out[i] = ir.AnalyzeFields(indexFields(inst, opts)...)
		}
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = ir.AnalyzeFields(indexFields(insts[i], opts)...)
			}
		}()
	}
	for i := range insts {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *core.Catalog { return e.cat }

// InstanceCount returns the number of indexed qunit instances.
func (e *Engine) InstanceCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.instances)
}

// Segmenter exposes the engine's query segmenter (shared with callers
// that need gold segmentations, e.g. the evaluation oracle).
func (e *Engine) Segmenter() *segment.Segmenter { return e.seg }

// Search answers a structured request: the query is segmented and
// typed, the segmentation identifies qunit types, IR ranking over the
// (optionally filtered) instances picks the page [Offset, Offset+K),
// and — when asked — the response explains every step. It is safe to
// call from any number of goroutines concurrently; index shards are
// scored in parallel. The context is honored between pipeline stages.
func (e *Engine) Search(ctx context.Context, req Request) (*Response, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.searchLocked(ctx, req, ir.ShardSet{})
}

// searchLocked is the body of Search; callers hold the read lock and
// have validated the request. BatchSearch reuses it so a whole batch
// runs under one lock acquisition; PartitionSearch passes a non-zero
// shard set to score only its subset of the index (the zero set scores
// everything).
func (e *Engine) searchLocked(ctx context.Context, req Request, set ir.ShardSet) (*Response, error) {
	allowed, err := e.filterSet(req.Filter)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sg := e.seg.Segment(req.Query)
	affinity := e.typeAffinity(sg)
	// Anchor identification: the entities the query names select the
	// instances bound to them.
	anchors := map[string]bool{}
	for _, ent := range sg.Entities() {
		anchors[ent.Text] = true
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var results []Result
	var total int
	pruned := false
	if e.canPrune(req) {
		results, total, pruned = e.prunedPage(req, set, allowed, affinity, anchors)
	}
	if !pruned {
		hits := e.index.SearchSet(e.retrievalScorer(), req.Query, 0, set)
		results = e.collectResults(hits, nil, allowed, affinity, anchors)
		sortResults(results)
		total = len(results)
	}
	resp := &Response{Total: total}
	if req.Offset < len(results) {
		results = results[req.Offset:]
	} else {
		results = nil
	}
	if req.K > 0 && len(results) > req.K {
		results = results[:req.K]
	}
	resp.Results = results
	if req.Explain {
		resp.Explain = explainPayload(sg, affinity)
	}
	return resp, nil
}

// retrievalScorer returns the engine's scorer, wrapped in the
// exhaustive-oracle shim when the debugging flag asks for it.
func (e *Engine) retrievalScorer() ir.Scorer {
	if e.opts.ExhaustiveScorer {
		return ir.Exhaustive{S: e.opts.Scorer}
	}
	return e.opts.Scorer
}

// canPrune reports whether the request can take the pruned top-k path.
// Besides needing a bounded page and a prunable scorer, every score
// multiplier must be monotone in the quantity it scales (non-negative
// boosts, utility influence within [0,1]) — otherwise the multiplier
// ceiling the early-termination bound relies on would not be a ceiling.
func (e *Engine) canPrune(req Request) bool {
	return req.K > 0 &&
		!e.opts.ExhaustiveScorer &&
		ir.Prunable(e.opts.Scorer) &&
		e.opts.TypeBoost >= 0 &&
		e.opts.UtilityInfluence >= 0 && e.opts.UtilityInfluence <= 1 &&
		e.opts.AnchorBoost >= 0
}

// resultFor applies the per-instance score multipliers to one IR score.
// The multiplication order (ir · type · utility · anchor) is fixed:
// float multiplication is not associative, and the pruned path's bound
// must be computed by the same expression shape.
func (e *Engine) resultFor(inst *core.Instance, irScore float64, affinity map[string]float64, anchors map[string]bool) Result {
	aff := affinity[inst.Def.Name]
	util := inst.Utility
	typeFactor := 1 + e.opts.TypeBoost*aff
	blend := 1 - e.opts.UtilityInfluence + e.opts.UtilityInfluence*util
	boost := 1.0
	if anchors[inst.Label()] {
		boost = 1 + e.opts.AnchorBoost
	}
	return Result{
		Instance:     inst,
		Score:        irScore * typeFactor * blend * boost,
		IRScore:      irScore,
		TypeAffinity: aff,
		TypeFactor:   typeFactor,
		Utility:      util,
		UtilityBlend: blend,
		AnchorBoost:  boost,
	}
}

// collectResults converts IR hits to scored results, applying the
// definition/anchor-type filter and the per-instance score multipliers;
// instances in exclude are skipped (the pruned path scores the
// anchor-labeled ones separately and exactly).
func (e *Engine) collectResults(hits []ir.Hit, exclude map[string]bool, allowed map[string]bool, affinity map[string]float64, anchors map[string]bool) []Result {
	results := make([]Result, 0, len(hits))
	for _, h := range hits {
		if exclude != nil && exclude[h.Name] {
			continue
		}
		inst := e.instances[h.Name]
		if inst == nil {
			continue
		}
		if allowed != nil && !allowed[inst.Def.Name] {
			continue
		}
		results = append(results, e.resultFor(inst, h.Score, affinity, anchors))
	}
	return results
}

// prunedPage retrieves the request's result page through the pruned
// top-k scorer instead of scoring every candidate. ok=false means the
// scorer could not build a pruning plan and the caller must fall back
// to the exhaustive path.
//
// The exact Total a paginating client needs is counted as a bitset
// union of the query terms' doc ids (ShardedIndex.CountCandidatesSet): dense
// blocks fill as bit ranges, an unfiltered total is a popcount, and
// only a filter or tombstones make it visit each candidate — no score
// math, no cursor walk. The anchor-boosted instances
// (those whose label is an entity the query names — a small set the
// label index resolves directly) are scored exactly via cursor seeks,
// so the anchor boost never inflates the unseen-document bound. The
// page itself then comes from iteratively-deepened pruned retrieval:
// ask the index for its IR top kq, convert and filter, merge in the
// anchor results, and stop once the page is provably complete — any
// unseen document is non-anchored, so its final score is at most the
// kq-th IR score times the remaining multiplier ceiling (max type
// affinity is known per query; utilities are bounded by the engine's
// monotone maxUtility). Every multiplier is monotone and non-negative,
// and the ceiling is computed by the same float expression shape as the
// per-result multipliers, so the float comparison is exact — strictly
// beating the ceiling guarantees the page matches the exhaustive path
// bit for bit, tie-breaks included; a tie deepens instead of stopping.
func (e *Engine) prunedPage(req Request, set ir.ShardSet, allowed map[string]bool, affinity map[string]float64, anchors map[string]bool) ([]Result, int, bool) {
	scorer := e.opts.Scorer
	terms := ir.Tokenize(req.Query)
	// With no filter every candidate counts: every index document has an
	// instance (the two are only ever updated together under the write
	// lock), so the per-candidate instance lookup is skipped entirely.
	var allow func(name string) bool
	if allowed != nil {
		allow = func(name string) bool {
			inst := e.instances[name]
			return inst != nil && allowed[inst.Def.Name]
		}
	}
	total := e.index.CountCandidatesSet(terms, allow, set)

	// Exact scoring of the anchor-labeled instances.
	var exclude map[string]bool
	var anchorResults []Result
	if len(anchors) > 0 {
		var anchorInsts []*core.Instance
		for label := range anchors {
			for _, inst := range e.byLabel[label] {
				anchorInsts = append(anchorInsts, inst)
			}
		}
		if len(anchorInsts) > 0 {
			names := make([]string, len(anchorInsts))
			exclude = make(map[string]bool, len(anchorInsts))
			for i, inst := range anchorInsts {
				names[i] = inst.ID()
				exclude[names[i]] = true
			}
			// With a shard subset, anchor instances living on excluded
			// shards are absent from the score map and drop out below —
			// their exclude entries are harmless (those names never
			// surface from subset retrieval anyway).
			scores, ok := e.index.ScoreNamedSet(scorer, terms, names, set)
			if !ok {
				return nil, 0, false
			}
			for _, inst := range anchorInsts {
				irScore, contained := scores[inst.ID()]
				if !contained {
					continue // no query term: the exhaustive scorer omits it too
				}
				if allowed != nil && !allowed[inst.Def.Name] {
					continue
				}
				anchorResults = append(anchorResults, e.resultFor(inst, irScore, affinity, anchors))
			}
		}
	}

	// Boosted retrieval: the index ranks by final score directly, with
	// the type/utility multipliers folded in per document and the
	// remaining multiplier ceiling (anchor-boosted documents are all in
	// anchorResults, so their ×1 boost drops out) driving the pruning
	// bounds. The top `target` non-anchor results plus the exact anchor
	// results are a superset of the true page.
	target := req.Offset + req.K
	maxAff := 0.0
	for _, a := range affinity {
		if a > maxAff {
			maxAff = a
		}
	}
	typeHi := 1 + e.opts.TypeBoost*maxAff
	blendHi := 1 - e.opts.UtilityInfluence + e.opts.UtilityInfluence*e.maxUtility
	booster := &pageBooster{e: e, allowed: allowed, exclude: exclude, affinity: affinity}
	hits, ok := e.index.SearchBoostedSet(scorer, req.Query, target, booster, typeHi*blendHi, set)
	if !ok {
		return nil, 0, false
	}
	results := make([]Result, 0, len(hits)+len(anchorResults))
	for _, h := range hits {
		results = append(results, e.resultFor(e.instances[h.Name], h.IRScore, affinity, anchors))
	}
	results = append(results, anchorResults...)
	sortResults(results)
	return results, total, true
}

// pageBooster adapts the engine's score multipliers to ir.Booster. Its
// Final must reproduce the exhaustive path's multiplier chain bit for
// bit for non-anchored documents: ir·type·utility (the trailing ×1
// anchor factor of resultFor is exact in floats and drops away). It is
// called concurrently from shard goroutines; it only reads state the
// engine's read lock protects.
type pageBooster struct {
	e        *Engine
	allowed  map[string]bool
	exclude  map[string]bool
	affinity map[string]float64
}

// Include implements ir.Booster.
func (b *pageBooster) Include(name string) bool {
	if b.exclude != nil && b.exclude[name] {
		return false
	}
	inst := b.e.instances[name]
	if inst == nil {
		return false
	}
	return b.allowed == nil || b.allowed[inst.Def.Name]
}

// Final implements ir.Booster.
func (b *pageBooster) Final(name string, irScore float64) float64 {
	inst := b.e.instances[name]
	typeFactor := 1 + b.e.opts.TypeBoost*b.affinity[inst.Def.Name]
	blend := 1 - b.e.opts.UtilityInfluence + b.e.opts.UtilityInfluence*inst.Utility
	return irScore * typeFactor * blend
}

// docInstances returns the dense global-doc-id → instance view of the
// engine, rebuilding the cached slice when a mutation has invalidated
// it. Callers hold the engine read lock; the cache's own lock
// serializes concurrent rebuilds. Tombstoned slots hold nil.
func (e *Engine) docInstances() []*core.Instance {
	v := e.docsVersion
	c := &e.docCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byDoc != nil && c.version == v {
		return c.byDoc
	}
	byDoc := make([]*core.Instance, e.index.Slots())
	for g := range byDoc {
		if name := e.index.Name(g); name != "" {
			byDoc[g] = e.instances[name]
		}
	}
	c.version = v
	c.byDoc = byDoc
	return byDoc
}

// noteUtility folds one observed instance utility into the monotone
// maxUtility bound. Callers hold the write lock (or are inside
// single-threaded construction).
func (e *Engine) noteUtility(u float64) {
	if u > e.maxUtility {
		e.maxUtility = u
	}
}

// indexLabel registers an instance under its anchor label; the pruned
// search path uses the label index to resolve the (small) set of
// anchor-boosted instances a query names, so the anchor boost never has
// to inflate the unseen-document bound.
func (e *Engine) indexLabel(inst *core.Instance) {
	if e.byLabel == nil {
		e.byLabel = make(map[string]map[string]*core.Instance)
	}
	label := inst.Label()
	m := e.byLabel[label]
	if m == nil {
		m = make(map[string]*core.Instance)
		e.byLabel[label] = m
	}
	m[inst.ID()] = inst
}

// dropLabel removes an instance id from the label index.
func (e *Engine) dropLabel(inst *core.Instance) {
	label := inst.Label()
	if m := e.byLabel[label]; m != nil {
		delete(m, inst.ID())
		if len(m) == 0 {
			delete(e.byLabel, label)
		}
	}
}

// BatchResult pairs one batched request's response with its error;
// exactly one of the two is set.
type BatchResult struct {
	Response *Response
	Err      error
}

// BatchSearch answers several requests against one consistent view of
// the engine: the read lock is taken once for the whole batch, so no
// feedback or instance mutation can interleave between items — every
// item scores the same index state and utilities. Distinct items are
// answered by ONE amortized pass over the shared posting lists (see
// batch.go); duplicate items (same canonical CacheKey) are evaluated
// once and returned as independent copies. Results are positionally
// aligned with reqs, bitwise identical to calling Search per item.
func (e *Engine) BatchSearch(ctx context.Context, reqs []Request) []BatchResult {
	return e.batchSearchSet(ctx, reqs, ir.ShardSet{})
}

// filterSet resolves a Filter to the set of definition names it allows;
// a nil map means "no filtering". Must be called with e.mu held.
func (e *Engine) filterSet(f Filter) (map[string]bool, error) {
	if f.IsZero() {
		return nil, nil
	}
	var byName map[string]bool
	if len(f.Definitions) > 0 {
		byName = make(map[string]bool, len(f.Definitions))
		for _, name := range f.Definitions {
			if e.cat.Definition(name) == nil {
				return nil, &UnknownDefinitionError{Name: name}
			}
			byName[name] = true
		}
	}
	if len(f.AnchorTypes) == 0 {
		return byName, nil
	}
	anchorTypes := make(map[string]bool, len(f.AnchorTypes))
	for _, at := range f.AnchorTypes {
		anchorTypes[at] = true
	}
	allowed := make(map[string]bool)
	for _, d := range e.cat.Definitions() {
		if byName != nil && !byName[d.Name] {
			continue
		}
		if _, col, ok := d.AnchorParam(); ok && anchorTypes[col.String()] {
			allowed[d.Name] = true
		}
	}
	return allowed, nil
}

// sortResults orders results by score desc, ties broken by instance ID
// asc — the deterministic order every search path (sharded or not) must
// present. IDs are materialized once up front: Instance.ID() builds a
// string, far too expensive to recompute inside the comparator.
func sortResults(results []Result) {
	ids := make([]string, len(results))
	for i := range results {
		ids[i] = results[i].Instance.ID()
	}
	sort.Sort(&resultSorter{results: results, ids: ids})
}

type resultSorter struct {
	results []Result
	ids     []string
}

func (s *resultSorter) Len() int { return len(s.results) }
func (s *resultSorter) Less(i, j int) bool {
	if s.results[i].Score != s.results[j].Score {
		return s.results[i].Score > s.results[j].Score
	}
	return s.ids[i] < s.ids[j]
}
func (s *resultSorter) Swap(i, j int) {
	s.results[i], s.results[j] = s.results[j], s.results[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}

// typeAffinity scores each definition against the query's segmentation —
// the paper's "high overlap with the qunit definition" step. An entity
// segment matching the definition's anchor type is the strongest signal;
// attribute vocabulary matching the definition's keywords or covered
// tables adds more.
func (e *Engine) typeAffinity(sg segment.Segmentation) map[string]float64 {
	aff := make(map[string]float64, e.cat.Len())
	entities := sg.Entities()
	attrs := sg.Attributes()
	for _, da := range e.affinityDefs() {
		d := da.d
		score := 0.0
		_, anchorCol, hasAnchor := d.AnchorParam()
		for _, ent := range entities {
			if !hasAnchor {
				continue
			}
			if ent.Type == anchorCol {
				score += 2
			} else if ent.Type.Table == anchorCol.Table {
				score += 1
			}
		}
		for _, a := range attrs {
			if da.kw[a.Text] {
				score += 2
			} else if da.tables[a.Table] {
				score += 1
			}
		}
		// A bare single-entity query prefers profile qunits: rollup
		// definitions (those with sections) answer underspecified
		// queries.
		if len(entities) == 1 && len(attrs) == 0 && da.rollup {
			score += 1
		}
		if score > 0 {
			aff[d.Name] = score
		}
	}
	return aff
}

// affinityDefs returns the cached per-definition type-affinity state,
// rebuilding it when the catalog has grown. Rebuilding normalizes every
// definition's keyword vocabulary once instead of once per query.
func (e *Engine) affinityDefs() []defAffinity {
	c := &e.affCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.defs != nil && c.n == e.cat.Len() {
		return c.defs
	}
	ds := e.cat.Definitions()
	defs := make([]defAffinity, 0, len(ds))
	for _, d := range ds {
		kw := make(map[string]bool, len(d.Keywords))
		for _, w := range d.Keywords {
			kw[ir.Normalize(w)] = true
		}
		defs = append(defs, defAffinity{d: d, kw: kw, tables: definitionTables(d), rollup: len(d.Sections) > 0})
	}
	c.n, c.defs = e.cat.Len(), defs
	return defs
}

// InstanceIDs returns every indexed instance ID in sorted order — a
// stable enumeration for tools (and tests/benchmarks) that need to
// address the live instance set.
func (e *Engine) InstanceIDs() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ids := make([]string, 0, len(e.instances))
	for id := range e.instances {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Instance returns the indexed instance with the given ID, if any. Used
// by tools that inspect engine state.
func (e *Engine) Instance(id string) (*core.Instance, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	inst, ok := e.instances[id]
	return inst, ok
}

// InstanceDetail returns the instance with the given ID together with a
// consistent snapshot of its utility. Unlike reading Instance().Utility
// directly, the snapshot is taken under the engine lock, so it never
// races with concurrent ApplyFeedback updates.
func (e *Engine) InstanceDetail(id string) (inst *core.Instance, utility float64, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	inst, ok = e.instances[id]
	if !ok {
		return nil, 0, false
	}
	return inst, inst.Utility, true
}
