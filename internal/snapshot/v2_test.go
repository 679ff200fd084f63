package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"qunits/internal/search"
)

// mutatedEngine builds the fixture engine and churns it — removals,
// re-adds, feedback — so its index carries tombstoned slots and stale
// block-max metadata, the state v2 must reproduce exactly.
func mutatedEngine(t *testing.T) *search.Engine {
	t.Helper()
	e := fixtureEngine(t, fixtureDB(t))
	top := searchTopK(e, "star wars cast", 3)
	if len(top) < 2 {
		t.Fatal("fixture query found too little")
	}
	removed := top[1].Instance.ID()
	if err := e.RemoveInstance(removed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyFeedback(top[0].Instance.ID(), true, search.Feedback{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddAnchorInstance("movie-cast", "zz v2 snapshot movie"); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestV2SaveLoadSaveFixedPoint: a v2 load reproduces the dumped index
// slot-for-slot and posting-block-for-posting-block, so saving the
// loaded engine again must yield byte-identical snapshot output — a
// much stronger property than search parity alone.
func TestV2SaveLoadSaveFixedPoint(t *testing.T) {
	e := mutatedEngine(t)
	var first bytes.Buffer
	if err := SaveEngine(&first, e); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(first.Bytes()), fixtureDB(t))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := SaveEngine(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("save→load→save changed the snapshot bytes (%d vs %d bytes)", first.Len(), second.Len())
	}
	for _, req := range queryCorpus {
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
}

// TestV1UpgradeLoad mints a genuine version-1 blob (no slot or postings
// sections) with the kept-for-compat v1 encoder and loads it with the
// current binary: the compacted-slot restore path must still answer
// every query bitwise-identically to the dumped engine.
func TestV1UpgradeLoad(t *testing.T) {
	e := mutatedEngine(t)
	st, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := encodeStateAt(&v1, e.Catalog().DB(), st, 1); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint16(v1.Bytes()[4:6]); got != 1 {
		t.Fatalf("minted blob has version %d, want 1", got)
	}
	loaded, err := LoadEngine(bytes.NewReader(v1.Bytes()), fixtureDB(t))
	if err != nil {
		t.Fatalf("loading v1 snapshot: %v", err)
	}
	for _, req := range queryCorpus {
		want, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "v1-upgrade "+req.Query, want, got)
	}
}

// TestV2ExhaustiveFlagPersisted: the debugging flag survives the
// round trip, so a snapshot of an oracle-mode engine restores into
// oracle mode.
func TestV2ExhaustiveFlagPersisted(t *testing.T) {
	db := fixtureDB(t)
	cat := fixtureEngine(t, db).Catalog()
	e, err := search.NewEngine(cat, search.Options{Shards: 2, ExhaustiveScorer: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	head, blob, meta, err := splitSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(head, blob, meta, true, db)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Options.ExhaustiveScorer {
		t.Fatal("ExhaustiveScorer flag lost in the round trip")
	}
}

// TestV2TruncatedPostingsSection: cutting the stream inside the new
// postings section must fail with ErrTruncated, never a partial load.
func TestV2TruncatedPostingsSection(t *testing.T) {
	e := mutatedEngine(t)
	var full bytes.Buffer
	if err := SaveEngine(&full, e); err != nil {
		t.Fatal(err)
	}
	st, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	// Measure the v1 prefix: everything after it is the v2 section.
	var v1 bytes.Buffer
	if err := encodeStateAt(&v1, e.Catalog().DB(), st, 1); err != nil {
		t.Fatal(err)
	}
	sectionStart := v1.Len() - 4 // drop the v1 trailing checksum
	snap := full.Bytes()
	for _, cut := range []int{sectionStart + 1, sectionStart + 10, len(snap) - 20, len(snap) - 5} {
		_, err := LoadEngine(bytes.NewReader(snap[:cut]), fixtureDB(t))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: err = %v, want ErrTruncated", cut, len(snap), err)
		}
	}
}

// TestV2CorruptPostingsSection: flipped bytes inside the postings
// section are caught — by the checksum for blind flips, and by the
// typed structural checks when the checksum is recomputed to match the
// corrupt content.
func TestV2CorruptPostingsSection(t *testing.T) {
	e := mutatedEngine(t)
	var full bytes.Buffer
	if err := SaveEngine(&full, e); err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(nil), full.Bytes()...)
	snap[len(snap)-12] ^= 0x55 // inside the final block's TF array
	if _, err := LoadEngine(bytes.NewReader(snap), fixtureDB(t)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("blind flip: err = %v, want ErrChecksum", err)
	}

	// Structural corruption with a valid checksum: re-encode a state
	// whose postings section lies about its live counts.
	st, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Postings) == 0 || len(st.Postings[0]) == 0 {
		t.Fatal("fixture has no postings to corrupt")
	}
	st.Postings[0][0].Live += 3
	var lied bytes.Buffer
	if err := encodeState(&lied, e.Catalog().DB(), st); err != nil {
		t.Fatal(err)
	}
	_, err = LoadEngine(bytes.NewReader(lied.Bytes()), fixtureDB(t))
	if err == nil || !strings.Contains(err.Error(), "live count") {
		t.Fatalf("lying live count: err = %v, want live-count validation failure", err)
	}

	// Out-of-order doc slots with a valid checksum: the decoder's typed
	// structural check must fire.
	st2, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Docs) < 2 {
		t.Fatal("fixture too small")
	}
	st2.Docs[0].Slot, st2.Docs[1].Slot = st2.Docs[1].Slot, st2.Docs[0].Slot
	var swapped bytes.Buffer
	if err := encodeState(&swapped, e.Catalog().DB(), st2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(bytes.NewReader(swapped.Bytes()), fixtureDB(t)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("slot disorder: err = %v, want ErrCorrupt", err)
	}
}
