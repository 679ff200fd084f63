package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"qunits/internal/search"
)

// TestCompactThenSaveEqualsSaveLoadCompactSave is the
// compaction↔snapshot equivalence: compacting an engine and saving it
// must produce the same bytes as saving it uncompacted, loading that
// snapshot, compacting the loaded engine, and saving again. Compaction
// commutes with the snapshot round trip because a v2 load is slot-exact
// and a compaction pass is a pure function of the index state.
func TestCompactThenSaveEqualsSaveLoadCompactSave(t *testing.T) {
	e := mutatedEngine(t)
	if st := e.IndexStats(); st.Tombstones == 0 {
		t.Fatal("fixture engine has no tombstones to reclaim")
	}
	var uncompacted bytes.Buffer
	if err := SaveEngine(&uncompacted, e); err != nil {
		t.Fatal(err)
	}

	// Path B: save → load → compact → save.
	loaded, err := LoadEngine(bytes.NewReader(uncompacted.Bytes()), fixtureDB(t))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := loaded.Compact()
	if err != nil {
		t.Fatal(err)
	}
	var pathB bytes.Buffer
	if err := SaveEngine(&pathB, loaded); err != nil {
		t.Fatal(err)
	}

	// Path A: compact → save.
	resA, err := e.Compact()
	if err != nil {
		t.Fatal(err)
	}
	var pathA bytes.Buffer
	if err := SaveEngine(&pathA, e); err != nil {
		t.Fatal(err)
	}

	if resA != resB {
		t.Fatalf("compaction results diverged: %+v vs %+v", resA, resB)
	}
	if resA.ReclaimedSlots == 0 {
		t.Fatal("compaction reclaimed nothing")
	}
	if !bytes.Equal(pathA.Bytes(), pathB.Bytes()) {
		t.Fatalf("compact→save (%d bytes) != save→load→compact→save (%d bytes)", pathA.Len(), pathB.Len())
	}
	// (No size assertion: slot remapping redistributes documents across
	// shards, so per-shard list header overhead can offset the few
	// bytes this fixture's single tombstone frees. The dense-on-disk
	// property is pinned structurally by TestCompactedSnapshotIsSlotDense.)
	if bytes.Equal(pathA.Bytes(), uncompacted.Bytes()) {
		t.Fatal("compacted snapshot is identical to the tombstoned one — compaction changed nothing on disk")
	}
}

// TestCompactedSnapshotIsSlotDense decodes a compacted engine's
// snapshot and checks the v2 slot section directly: no tombstones are
// persisted — slot ids are exactly 0..N-1 — and every posting list's
// stored postings are all live.
func TestCompactedSnapshotIsSlotDense(t *testing.T) {
	e := mutatedEngine(t)
	if _, err := e.Compact(); err != nil {
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
	st, err := decodeState(head, blob, meta, true, fixtureDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.Slots != len(st.Docs) {
		t.Fatalf("compacted snapshot has %d slots for %d docs", st.Slots, len(st.Docs))
	}
	for i, d := range st.Docs {
		if d.Slot != i {
			t.Fatalf("doc %d persisted in slot %d; compacted snapshots are dense", i, d.Slot)
		}
	}
	for si, lists := range st.Postings {
		for _, tp := range lists {
			total := 0
			for _, b := range tp.Blocks {
				total += b.N
			}
			if total != tp.Live {
				t.Fatalf("shard %d term %q: %d stored postings, %d live — tombstones persisted after compaction", si, tp.Term, total, tp.Live)
			}
		}
	}
}

// TestCompactedRoundTripFixedPointAndParity: a compacted engine's
// snapshot round-trips to a byte fixed point and the loaded engine
// answers the query corpus bitwise identically — including against the
// original engine from BEFORE the compaction.
func TestCompactedRoundTripFixedPointAndParity(t *testing.T) {
	original := mutatedEngine(t)
	reference := make([]*search.Response, 0, len(queryCorpus))
	for _, req := range queryCorpus {
		resp, err := original.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		reference = append(reference, resp)
	}
	if _, err := original.Compact(); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := SaveEngine(&first, original); err != nil {
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
		t.Fatal("compacted snapshot is not a save→load→save fixed point")
	}
	for i, req := range queryCorpus {
		got, err := loaded.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "compacted round trip "+req.Query, reference[i], got)
	}
}

// TestV1UpgradeLoadThenCompact: a v1 snapshot restores by compacting
// replay, so the loaded engine is already dense — a compaction pass
// must be a no-op that reclaims nothing — and the post-compaction
// engine must still save→load→save to a byte fixed point at v2.
func TestV1UpgradeLoadThenCompact(t *testing.T) {
	e := mutatedEngine(t)
	st, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := encodeStateAt(&v1, e.Catalog().DB(), st, 1); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(v1.Bytes()), fixtureDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if ix := loaded.IndexStats(); ix.Tombstones != 0 {
		t.Fatalf("v1 upgrade load left %d tombstones; the replay path compacts", ix.Tombstones)
	}
	res, err := loaded.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedSlots != 0 {
		t.Fatalf("compacting a v1-upgraded engine reclaimed %d slots, want 0", res.ReclaimedSlots)
	}
	var first, second bytes.Buffer
	if err := SaveEngine(&first, loaded); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadEngine(bytes.NewReader(first.Bytes()), fixtureDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveEngine(&second, reloaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("v1-upgrade → compact → save is not a v2 fixed point")
	}
	for _, req := range queryCorpus {
		want, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reloaded.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "v1-upgrade+compact "+req.Query, want, got)
	}
}

// TestCompactedSnapshotCorruption: the typed truncation/corruption
// errors keep firing on the compacted (dense) layout.
func TestCompactedSnapshotCorruption(t *testing.T) {
	e := mutatedEngine(t)
	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	for _, cut := range []int{3, 40, len(snap) / 2, len(snap) - 20, len(snap) - 2} {
		if _, err := LoadEngine(bytes.NewReader(snap[:cut]), fixtureDB(t)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: err = %v, want ErrTruncated", cut, len(snap), err)
		}
	}
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)-12] ^= 0x55 // inside the final block's TF array
	if _, err := LoadEngine(bytes.NewReader(flipped), fixtureDB(t)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: err = %v, want ErrChecksum", err)
	}
	future := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint16(future[4:6], FormatVersion+1)
	var fv *FutureVersionError
	if _, err := LoadEngine(bytes.NewReader(future), fixtureDB(t)); !errors.As(err, &fv) {
		t.Fatalf("future version: err = %v, want FutureVersionError", err)
	}
}
