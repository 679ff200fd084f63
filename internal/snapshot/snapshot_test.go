package snapshot

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"qunits/internal/derive"
	"qunits/internal/imdb"
	"qunits/internal/ir"
	"qunits/internal/relational"
	"qunits/internal/search"
)

// fixtureDB regenerates the deterministic test universe — calling it
// twice models "the same database in a fresh process".
func fixtureDB(t *testing.T) *relational.Database {
	t.Helper()
	return imdb.MustGenerate(imdb.Config{Seed: 11, Persons: 150, Movies: 90, CastPerMovie: 5}).DB
}

func fixtureEngine(t *testing.T, db *relational.Database) *search.Engine {
	t.Helper()
	cat, err := derive.Expert{}.Derive(db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := search.NewEngine(cat, search.Options{
		Synonyms: imdb.AttributeSynonyms(),
		Shards:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// queryCorpus exercises entity anchors, attributes, multi-type queries,
// paging, filters, and explain payloads.
var queryCorpus = []search.Request{
	{Query: "star wars cast", K: 10, Explain: true},
	{Query: "george clooney", K: 10, Explain: true},
	{Query: "george clooney movies", K: 5, Explain: true},
	{Query: "cast", K: 20, Offset: 5, Explain: true},
	{Query: "movie", K: 10},
	{Query: "star wars", K: 10, Filter: search.Filter{Definitions: []string{"movie-cast"}}, Explain: true},
	{Query: "tom hanks", K: 3, Explain: true},
}

// assertIdentical requires bitwise-equal responses: same instances in
// the same order, every score component equal to the last bit, and
// equal explain payloads.
func assertIdentical(t *testing.T, label string, want, got *search.Response) {
	t.Helper()
	if got.Total != want.Total {
		t.Fatalf("%s: Total %d, want %d", label, got.Total, want.Total)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if g.Instance.ID() != w.Instance.ID() {
			t.Fatalf("%s result %d: %q, want %q", label, i, g.Instance.ID(), w.Instance.ID())
		}
		if g.Score != w.Score || g.IRScore != w.IRScore || g.TypeAffinity != w.TypeAffinity ||
			g.TypeFactor != w.TypeFactor || g.Utility != w.Utility ||
			g.UtilityBlend != w.UtilityBlend || g.AnchorBoost != w.AnchorBoost {
			t.Fatalf("%s result %d (%s): score components differ:\n got %+v\nwant %+v",
				label, i, g.Instance.ID(), strip(g), strip(w))
		}
		if g.Instance.Rendered.Text != w.Instance.Rendered.Text ||
			g.Instance.Rendered.XML != w.Instance.Rendered.XML {
			t.Fatalf("%s result %d: rendered presentation differs", label, i)
		}
	}
	if (want.Explain == nil) != (got.Explain == nil) {
		t.Fatalf("%s: explain presence differs", label)
	}
	if want.Explain == nil {
		return
	}
	if got.Explain.Template != want.Explain.Template {
		t.Fatalf("%s: template %q, want %q", label, got.Explain.Template, want.Explain.Template)
	}
	if len(got.Explain.Segments) != len(want.Explain.Segments) ||
		len(got.Explain.Affinities) != len(want.Explain.Affinities) {
		t.Fatalf("%s: explain shape differs", label)
	}
	for i := range want.Explain.Segments {
		if got.Explain.Segments[i] != want.Explain.Segments[i] {
			t.Fatalf("%s segment %d: %+v, want %+v", label, i, got.Explain.Segments[i], want.Explain.Segments[i])
		}
	}
	for i := range want.Explain.Affinities {
		if got.Explain.Affinities[i] != want.Explain.Affinities[i] {
			t.Fatalf("%s affinity %d: %+v, want %+v", label, i, got.Explain.Affinities[i], want.Explain.Affinities[i])
		}
	}
}

// strip drops the instance pointer so failure messages stay readable.
func strip(r search.Result) search.Result {
	r.Instance = nil
	return r
}

// TestRoundTripParity is the core guarantee: build → save → load in a
// "fresh process" (regenerated database) → every corpus response is
// identical to the fresh build's, explain breakdowns included.
func TestRoundTripParity(t *testing.T) {
	db := fixtureDB(t)
	fresh := fixtureEngine(t, db)

	var buf bytes.Buffer
	if err := SaveEngine(&buf, fresh); err != nil {
		t.Fatalf("SaveEngine: %v", err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()), fixtureDB(t))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if loaded.InstanceCount() != fresh.InstanceCount() {
		t.Fatalf("loaded InstanceCount %d, want %d", loaded.InstanceCount(), fresh.InstanceCount())
	}
	for _, req := range queryCorpus {
		want, err := fresh.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("fresh %q: %v", req.Query, err)
		}
		got, err := loaded.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("loaded %q: %v", req.Query, err)
		}
		assertIdentical(t, req.Query, want, got)
	}
}

// TestRoundTripCarriesLearnedState: feedback-shifted utilities and
// live-added instances survive the snapshot.
func TestRoundTripCarriesLearnedState(t *testing.T) {
	db := fixtureDB(t)
	e := fixtureEngine(t, db)
	top := searchTopK(e, "star wars cast", 1)
	if len(top) == 0 {
		t.Fatal("fixture query found nothing")
	}
	for i := 0; i < 3; i++ {
		if _, err := e.ApplyFeedback(top[0].Instance.ID(), true, search.Feedback{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.AddAnchorInstance("movie-cast", "zz snapshot only movie"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()), fixtureDB(t))
	if err != nil {
		t.Fatal(err)
	}
	corpus := append([]search.Request{{Query: "zz snapshot only movie", K: 5, Explain: true}}, queryCorpus...)
	for _, req := range corpus {
		want, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, req.Query, want, got)
	}
	// And the loaded engine keeps learning and mutating.
	if _, err := loaded.ApplyFeedback(top[0].Instance.ID(), false, search.Feedback{}); err != nil {
		t.Fatalf("feedback on loaded engine: %v", err)
	}
	if err := loaded.RemoveInstance("movie-cast:zz snapshot only movie"); err != nil {
		t.Fatalf("remove on loaded engine: %v", err)
	}
}

// TestRoundTripAfterRemoval: tombstoned slots are compacted out of the
// snapshot and the exact collection statistics travel with it.
func TestRoundTripAfterRemoval(t *testing.T) {
	db := fixtureDB(t)
	e := fixtureEngine(t, db)
	top := searchTopK(e, "george clooney", 1)
	if len(top) == 0 {
		t.Fatal("fixture query found nothing")
	}
	if err := e.RemoveInstance(top[0].Instance.ID()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()), fixtureDB(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range queryCorpus {
		want, _ := e.Search(context.Background(), req)
		got, err := loaded.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, req.Query, want, got)
	}
}

// TestRoundTripEmptiedEngine: an engine whose every instance was
// removed still snapshots and restores — the daemon must be able to
// boot from whatever state it saved.
func TestRoundTripEmptiedEngine(t *testing.T) {
	db := imdb.MustGenerate(imdb.Config{Seed: 12, Persons: 40, Movies: 20, CastPerMovie: 3}).DB
	cat, err := derive.Expert{}.Derive(db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := search.NewEngine(cat, search.Options{Synonyms: imdb.AttributeSynonyms()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range st.Docs {
		id := d.DefName
		if len(d.Params) > 0 {
			for _, v := range d.Params {
				id += ":" + v
			}
		}
		if err := e.RemoveInstance(id); err != nil {
			t.Fatalf("remove %q: %v", id, err)
		}
	}
	if e.InstanceCount() != 0 {
		t.Fatalf("engine not emptied: %d instances left", e.InstanceCount())
	}
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatalf("SaveEngine of empty engine: %v", err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()),
		imdb.MustGenerate(imdb.Config{Seed: 12, Persons: 40, Movies: 20, CastPerMovie: 3}).DB)
	if err != nil {
		t.Fatalf("LoadEngine of empty snapshot: %v", err)
	}
	if loaded.InstanceCount() != 0 {
		t.Fatalf("loaded InstanceCount = %d, want 0", loaded.InstanceCount())
	}
	resp, err := loaded.Search(context.Background(), search.Request{Query: "anything", K: 5})
	if err != nil || resp.Total != 0 {
		t.Fatalf("search on empty loaded engine: resp=%+v err=%v", resp, err)
	}
	// And it accepts new instances again.
	if _, err := loaded.AddAnchorInstance("movie-cast", "rebirth movie"); err != nil {
		t.Fatalf("add after empty reload: %v", err)
	}
}

func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveEngine(&buf, fixtureEngine(t, fixtureDB(t))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadBadMagic(t *testing.T) {
	snap := snapshotBytes(t)
	snap[0] = 'X'
	if _, err := LoadEngine(bytes.NewReader(snap), fixtureDB(t)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestLoadTruncated(t *testing.T) {
	snap := snapshotBytes(t)
	for _, cut := range []int{3, 5, 40, len(snap) / 2, len(snap) - 2} {
		if _, err := LoadEngine(bytes.NewReader(snap[:cut]), fixtureDB(t)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	if _, err := LoadEngine(bytes.NewReader(nil), fixtureDB(t)); !errors.Is(err, ErrTruncated) {
		t.Fatal("empty stream did not report truncation")
	}
}

func TestLoadBadChecksum(t *testing.T) {
	snap := snapshotBytes(t)
	// Flip the last payload byte (part of the trailing float): the
	// structure still decodes, so only the checksum can catch it.
	snap[len(snap)-5] ^= 0xff
	if _, err := LoadEngine(bytes.NewReader(snap), fixtureDB(t)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: err = %v, want ErrChecksum", err)
	}
	snap = snapshotBytes(t)
	snap[len(snap)-1] ^= 0xff // corrupt the stored checksum itself
	if _, err := LoadEngine(bytes.NewReader(snap), fixtureDB(t)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("checksum flip: err = %v, want ErrChecksum", err)
	}
}

func TestLoadFutureVersion(t *testing.T) {
	snap := snapshotBytes(t)
	snap[4], snap[5] = 0xff, 0x7f // version 32767
	_, err := LoadEngine(bytes.NewReader(snap), fixtureDB(t))
	var fv *FutureVersionError
	if !errors.As(err, &fv) {
		t.Fatalf("err = %v, want FutureVersionError", err)
	}
	if fv.Version != 32767 {
		t.Fatalf("reported version %d", fv.Version)
	}
}

func TestLoadDatabaseMismatch(t *testing.T) {
	snap := snapshotBytes(t)
	other := imdb.MustGenerate(imdb.Config{Seed: 11, Persons: 40, Movies: 20, CastPerMovie: 3}).DB
	_, err := LoadEngine(bytes.NewReader(snap), other)
	var mm *DatabaseMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("err = %v, want DatabaseMismatchError", err)
	}
}

// customScorer is a scorer the wire format cannot carry.
type customScorer struct{ ir.BM25 }

func (customScorer) Name() string { return "custom" }

func TestSaveUnsupportedScorer(t *testing.T) {
	db := fixtureDB(t)
	cat, err := derive.Expert{}.Derive(db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := search.NewEngine(cat, search.Options{Scorer: customScorer{}, Synonyms: imdb.AttributeSynonyms()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var us *UnsupportedScorerError
	if err := SaveEngine(&buf, e); !errors.As(err, &us) {
		t.Fatalf("err = %v, want UnsupportedScorerError", err)
	}
}

// TestSaveDeterministic: equal state produces equal bytes — snapshots
// are diffable and content-addressable.
func TestSaveDeterministic(t *testing.T) {
	db := fixtureDB(t)
	e := fixtureEngine(t, db)
	var a, b bytes.Buffer
	if err := SaveEngine(&a, e); err != nil {
		t.Fatal(err)
	}
	if err := SaveEngine(&b, e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same engine differ")
	}
}

// searchTopK is the test-local replacement for the deleted SearchTopK
// shim: a positional top-k call that flattens errors to no results.
func searchTopK(e *search.Engine, query string, k int) []search.Result {
	resp, err := e.Search(context.Background(), search.Request{Query: query, K: k})
	if err != nil {
		return nil
	}
	return resp.Results
}

// countingWriter counts the Write calls a save makes.
type countingWriter struct{ writes, bytes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// TestSaveEngineWriteCount: a save reaches its writer in buffer-sized
// writes, not one per varint and string, so a save to a file costs a
// few syscalls per 64 KiB instead of millions.
func TestSaveEngineWriteCount(t *testing.T) {
	var cw countingWriter
	if err := SaveEngine(&cw, mutatedEngine(t)); err != nil {
		t.Fatal(err)
	}
	const bufSize = 64 << 10
	if limit := (cw.bytes+bufSize-1)/bufSize + 1; cw.writes > limit {
		t.Fatalf("saving %d bytes made %d writes, want at most %d", cw.bytes, cw.writes, limit)
	}
}

// TestLoadEngineAllocs pins the copying load's allocation count on the
// mutated fixture. A load makes about 50k allocations, nearly all of
// them strings, maps and slices the engine keeps; reading the metadata
// through a per-byte stream more than doubles that and trips the bound.
func TestLoadEngineAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveEngine(&buf, mutatedEngine(t)); err != nil {
		t.Fatal(err)
	}
	db := fixtureDB(t)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := LoadEngine(bytes.NewReader(buf.Bytes()), db); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 111_000
	if allocs > budget {
		t.Fatalf("LoadEngine made %.0f allocations, budget %d", allocs, budget)
	}
}
