package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"qunits/internal/cluster"
	"qunits/internal/core"
	"qunits/internal/derive"
	"qunits/internal/imdb"
	"qunits/internal/ir"
	"qunits/internal/search"
	"qunits/internal/server"
	"qunits/internal/snapshot"
	"qunits/internal/synth"
)

// The traced run's sizes: how many wide-set requests the span loop
// replays (the fewest that leave ten samples beyond the 99th
// percentile), and how many repetitions the smaller measurements take.
// Mutations get fewer: one AddAnchorInstance costs tens of milliseconds.
const (
	traceRequests  = 1000
	traceRepeats   = 200
	traceMutations = 32
)

// Span names, one per layer entry point the traced loop calls.
const (
	spanRequest = "request"
	spanSegment = "segment.Segment"
	spanTopK    = "ir.Search"
	spanCount   = "ir.CountCandidates"
	spanSearch  = "search.Search"
	spanHandle  = "server.ServeHTTP"

	spansPerRequest = 6 // the root and one per layer call
)

// contains says which layer calls happen inside which when qunitsd
// serves a request. The traced loop makes the calls one after another
// from outside the program, so a layer's self time is an outside
// estimate: its own duration minus the durations of the calls it
// contains.
var contains = map[string][]string{
	spanHandle: {spanSearch},
	spanSearch: {spanSegment, spanTopK, spanCount},
}

// span is one timed call. Spans of one request share its Request id and
// have the request's root span as Parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. With recording off
// begin and end still read the clock, so the untraced loop differs from
// the traced one by the cost of keeping spans alone.
type tracer struct {
	recording bool
	origin    time.Time
	spans     []span
}

func (t *tracer) begin(name string, parent, request int) int {
	now := int64(time.Since(t.origin))
	if !t.recording {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, StartNs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.origin))
	if t.recording {
		t.spans[id-1].EndNs = now
	}
}

// selfTime is a span's duration minus the durations of the calls it
// contains, never below zero.
func selfTime(name string, durations map[string]int64) int64 {
	self := durations[name]
	for _, child := range contains[name] {
		self -= durations[child]
	}
	return max(self, 0)
}

// spanStats folds recorded spans into per-name duration samples and
// per-request self-time samples, both sorted.
func spanStats(spans []span) (byName, selfByName map[string][]int64) {
	byName, selfByName = map[string][]int64{}, map[string][]int64{}
	perRequest := map[int]map[string]int64{}
	for _, s := range spans {
		d := s.EndNs - s.StartNs
		byName[s.Name] = append(byName[s.Name], d)
		if perRequest[s.Request] == nil {
			perRequest[s.Request] = map[string]int64{}
		}
		perRequest[s.Request][s.Name] += d
	}
	for _, durations := range perRequest {
		for name := range contains {
			selfByName[name] = append(selfByName[name], selfTime(name, durations))
		}
	}
	for _, m := range []map[string][]int64{byName, selfByName} {
		for _, v := range m {
			slices.Sort(v)
		}
	}
	return byName, selfByName
}

func usQuantile(sorted []int64, q float64) float64 { return quantile(sorted, q) / 1e3 }

// timed runs fn and returns how long it took in seconds.
func timed(fn func() error) (float64, error) {
	began := time.Now()
	err := fn()
	return time.Since(began).Seconds(), err
}

// medianUs times fn n times and returns the median in microseconds.
func medianUs(n int, fn func(i int) error) (float64, error) {
	samples := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		began := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		samples = append(samples, int64(time.Since(began)))
	}
	slices.Sort(samples)
	return usQuantile(samples, 0.5), nil
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// traceDoc is what the traced run writes to trace.json.
type traceDoc struct {
	Requests int                `json:"requests"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

// traceLayers builds the engine in-process through the public calls
// qunitsd makes, timing each, then replays wide-set requests on one
// goroutine with a span around every layer call, and returns the
// per-layer metrics it can see from inside this process. The spans go
// to outDir/trace.json.
func traceLayers(ctx context.Context, instances int, seed int64, qs *querySets, targets mutationTargets, tmpDir, outDir string, requests, repeats int) (map[string]float64, error) {
	m := map[string]float64{}
	var err error

	// Set-up layers, in qunitsd's boot order.
	var u *imdb.Universe
	cfg := synth.ForInstances(instances)
	cfg.Seed = corpusSeed
	if m["synth.generate_s"], err = timed(func() (err error) { u, err = synth.Generate(cfg); return }); err != nil {
		return nil, err
	}
	heapBefore := heapMB()
	var cat *core.Catalog
	if m["derive.catalog_s"], err = timed(func() (err error) { cat, err = derive.Expert{}.Derive(u.DB); return }); err != nil {
		return nil, err
	}
	var engine *search.Engine
	if m["search.build_s"], err = timed(func() (err error) {
		engine, err = search.NewEngine(cat, search.Options{Synonyms: imdb.AttributeSynonyms()})
		return
	}); err != nil {
		return nil, err
	}
	m["search.heap_mb"] = heapMB() - heapBefore

	snapPath := filepath.Join(tmpDir, "trace.qsnp")
	if m["snapshot.save_s"], err = timed(func() error { return saveSnapshot(snapPath, engine) }); err != nil {
		return nil, err
	}
	info, err := os.Stat(snapPath)
	if err != nil {
		return nil, err
	}
	m["snapshot.bytes_per_instance"] = float64(info.Size()) / float64(engine.InstanceCount())
	var copied, mapped *search.Engine
	if m["snapshot.load_copy_s"], err = timed(func() error {
		f, err := os.Open(snapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		copied, err = snapshot.LoadEngine(f, u.DB)
		return err
	}); err != nil {
		return nil, err
	}
	if m["snapshot.load_mmap_s"], err = timed(func() (err error) { mapped, _, err = snapshot.LoadEngineFile(snapPath, u.DB); return }); err != nil {
		return nil, err
	}

	// A mirror of the engine's index, so ir can be called on its own.
	state, err := engine.DumpState()
	if err != nil {
		return nil, err
	}
	mirror := ir.NewShardedIndex(state.Shards)
	for i, doc := range state.Docs {
		if _, err := mirror.AddAnalyzed(fmt.Sprintf("%s#%d", doc.DefName, i), doc.Terms); err != nil {
			return nil, fmt.Errorf("mirroring the index: %w", err)
		}
	}
	state = nil

	// The span loop, once recording and once not.
	uncached := server.New(engine, server.Config{CacheSize: -1})
	rng := rand.New(rand.NewSource(seed))
	picks := make([]int, requests)
	for i := range picks {
		picks[i] = qs.drawWide(rng)
	}
	var postings, blocks int
	loop := func(t *tracer, picks []int) (time.Duration, error) {
		t.origin = time.Now()
		postings, blocks = 0, 0
		for i, pick := range picks {
			query, request := qs.wide[pick], i+1
			root := t.begin(spanRequest, 0, request)

			id := t.begin(spanSegment, root, request)
			engine.Segmenter().Segment(query)
			t.end(id)

			id = t.begin(spanTopK, root, request)
			mirror.Search(ir.BM25{}, query, pageK)
			t.end(id)

			terms := ir.Tokenize(query)
			id = t.begin(spanCount, root, request)
			mirror.CountCandidates(terms, nil)
			t.end(id)
			fp := mirror.QueryFootprint(terms)
			postings += fp.Postings
			blocks += fp.Blocks

			id = t.begin(spanSearch, root, request)
			_, err := engine.Search(ctx, search.Request{Query: query, K: pageK})
			t.end(id)
			if err != nil {
				return 0, fmt.Errorf("Engine.Search(%q): %w", query, err)
			}

			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(qs.bodies[pick]))
			id = t.begin(spanHandle, root, request)
			uncached.ServeHTTP(rec, req)
			t.end(id)
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("handler answered %q with %d", query, rec.Code)
			}
			t.end(root)
		}
		return time.Since(t.origin), nil
	}
	// The untraced pass replays the first quarter, and is compared with
	// the time the traced pass took over the same requests.
	quarter := max(requests/4, 1)
	untracedTook, err := loop(&tracer{}, picks[:quarter])
	if err != nil {
		return nil, err
	}
	traced := &tracer{recording: true, spans: make([]span, 0, requests*spansPerRequest)}
	if _, err := loop(traced, picks); err != nil {
		return nil, err
	}
	tracedTook := time.Duration(traced.spans[(quarter-1)*spansPerRequest].EndNs) // the quarter's last root span
	m["trace.overhead_share"] = (tracedTook - untracedTook).Seconds() / untracedTook.Seconds()
	m["ir.postings_per_query"] = float64(postings) / float64(requests)
	m["ir.blocks_per_query"] = float64(blocks) / float64(requests)
	byName, selfByName := spanStats(traced.spans)
	for name, prefix := range map[string]string{spanSegment: "segment.segment", spanTopK: "ir.topk", spanCount: "ir.count", spanSearch: "search.search"} {
		m[prefix+"_p50_us"] = usQuantile(byName[name], 0.5)
		m[prefix+"_p99_us"] = usQuantile(byName[name], 0.99)
	}
	m["server.handle_p50_us"] = usQuantile(byName[spanHandle], 0.5)
	m["search.search_self_p50_us"] = usQuantile(selfByName[spanSearch], 0.5)
	m["server.handle_self_p50_us"] = usQuantile(selfByName[spanHandle], 0.5)

	// The same search on the mapped engine.
	if m["search.search_mmap_p50_us"], err = medianUs(len(picks)/2, func(i int) error {
		_, err := mapped.Search(ctx, search.Request{Query: qs.wide[picks[i]], K: pageK})
		return err
	}); err != nil {
		return nil, err
	}
	mapped = nil

	// One batch of batchSize through the one-pass walk, per query.
	batch := make([]search.Request, batchSize)
	perBatch, err := medianUs(max(repeats/4, 1), func(int) error {
		for i := range batch {
			batch[i] = search.Request{Query: qs.wide[qs.drawWide(rng)], K: pageK}
		}
		for _, r := range engine.BatchSearch(ctx, batch) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["search.batch_us_per_query"] = perBatch / batchSize

	// The mutators, on the copy-loaded engine: remove and re-add ring
	// instances, and feed back on head instances.
	if m["search.mutate_remove_us"], err = medianUs(min(repeats, traceMutations), func(i int) error {
		return copied.RemoveInstance(ringID(targets.ring[i]))
	}); err != nil {
		return nil, err
	}
	if m["search.mutate_add_us"], err = medianUs(min(repeats, traceMutations), func(i int) error {
		_, err := copied.AddAnchorInstance(ringDefinition, targets.ring[i])
		return err
	}); err != nil {
		return nil, err
	}
	if m["search.mutate_feedback_us"], err = medianUs(min(repeats, traceMutations), func(i int) error {
		_, err := copied.ApplyFeedback(targets.feedback[i], i%2 == 0, search.Feedback{})
		return err
	}); err != nil {
		return nil, err
	}
	copied = nil

	// The handler's hit path: cache on, one request repeated.
	cached := server.New(engine, server.Config{})
	hit := func(int) error {
		rec := httptest.NewRecorder()
		cached.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(qs.bodies[0])))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler answered the repeated request with %d", rec.Code)
		}
		return nil
	}
	if err := hit(0); err != nil {
		return nil, err
	}
	if m["server.handle_hit_p50_us"], err = medianUs(repeats, hit); err != nil {
		return nil, err
	}

	// Scatter and merge without the network: a coordinator over two
	// in-process partitions of the same engine, against the engine alone.
	coord := cluster.NewCoordinator([]cluster.Partition{
		&cluster.LocalPartition{Engine: engine, Set: ir.ShardSet{Index: 0, Count: 2}},
		&cluster.LocalPartition{Engine: engine, Set: ir.ShardSet{Index: 1, Count: 2}},
	})
	scatter := make([]int64, 0, repeats)
	for i := 0; i < repeats; i++ {
		req := search.Request{Query: qs.wide[picks[i%len(picks)]], K: pageK}
		began := time.Now()
		if _, err := engine.Search(ctx, req); err != nil {
			return nil, err
		}
		alone := time.Since(began)
		began = time.Now()
		if _, err := coord.Search(ctx, req); err != nil {
			return nil, err
		}
		scatter = append(scatter, int64(time.Since(began)-alone))
	}
	slices.Sort(scatter)
	m["cluster.scatter_p50_us"] = usQuantile(scatter, 0.5)

	doc := traceDoc{Requests: requests, Metrics: m, Spans: traced.spans}
	return m, os.WriteFile(filepath.Join(outDir, "trace.json"), mustJSON(doc), 0o644)
}

// saveSnapshot writes the engine the way qunitsd does on shutdown:
// straight to the file, then fsync.
func saveSnapshot(path string, engine *search.Engine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snapshot.SaveEngine(f, engine); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
