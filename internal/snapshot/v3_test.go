package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"qunits/internal/search"
)

// v3Blob parses the v3 prologue of a snapshot and returns the blob
// region's length, failing the test on a non-v3 stream.
func v3Blob(t *testing.T, snap []byte) uint64 {
	t.Helper()
	if len(snap) < 16 {
		t.Fatalf("snapshot too short: %d bytes", len(snap))
	}
	if v := binary.LittleEndian.Uint16(snap[4:6]); v != 3 {
		t.Fatalf("snapshot version %d, want 3", v)
	}
	return binary.LittleEndian.Uint64(snap[6:14])
}

// rehashV3 recomputes the trailing CRC-32C after a test mutated the
// hashed region (header + metadata; the blob is outside it), so
// structural decoder checks are exercised instead of the checksum.
func rehashV3(snap []byte) {
	blobLen := binary.LittleEndian.Uint64(snap[6:14])
	h := crc32.New(crcTable)
	h.Write(snap[:16])
	h.Write(snap[16+blobLen : uint64(len(snap))-4])
	binary.LittleEndian.PutUint32(snap[len(snap)-4:], h.Sum32())
}

// writeSnapFile saves the engine's snapshot into a temp file and
// returns its path alongside the bytes.
func writeSnapFile(t *testing.T, e *search.Engine) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// mappedFixture loads a snapshot file via the mapped path, skipping the
// test on platforms where the mapping cannot engage.
func mappedFixture(t *testing.T, path string) *search.Engine {
	t.Helper()
	eng, mapped, err := LoadEngineFile(path, fixtureDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if !mapped {
		t.Skip("mapped snapshot path unavailable on this platform")
	}
	return eng
}

// TestV3HeaderAndBlobCRC pins the v3 prologue: version 3, a blob region
// that fits the file, and a CRC-64 of exactly the blob bytes stored as
// the first metadata field.
func TestV3HeaderAndBlobCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveEngine(&buf, mutatedEngine(t)); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	blobLen := v3Blob(t, snap)
	if snap[14] != 0 || snap[15] != 0 {
		t.Fatalf("header pad bytes are %x %x, want zero", snap[14], snap[15])
	}
	if 16+blobLen+8+4 > uint64(len(snap)) {
		t.Fatalf("blob length %d does not fit the %d-byte snapshot", blobLen, len(snap))
	}
	blob := snap[16 : 16+blobLen]
	stored := binary.LittleEndian.Uint64(snap[16+blobLen : 24+blobLen])
	if got := crc64.Checksum(blob, contentTable); got != stored {
		t.Fatalf("stored blob CRC %x does not cover the blob region (computed %x)", stored, got)
	}
}

// TestUpgradeChainFixedPoint: loading a minted v1 or v2 snapshot and
// re-saving it lands on a v3 byte fixed point — saving the re-loaded
// engine changes nothing — and the upgraded engine answers the query
// corpus bitwise-identically to the engine the old snapshot dumped.
func TestUpgradeChainFixedPoint(t *testing.T) {
	e := mutatedEngine(t)
	st, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint16{1, 2} {
		var old bytes.Buffer
		if err := encodeStateAt(&old, e.Catalog().DB(), st, version); err != nil {
			t.Fatal(err)
		}
		upgraded, err := LoadEngine(bytes.NewReader(old.Bytes()), fixtureDB(t))
		if err != nil {
			t.Fatalf("loading v%d snapshot: %v", version, err)
		}
		var first bytes.Buffer
		if err := SaveEngine(&first, upgraded); err != nil {
			t.Fatal(err)
		}
		v3Blob(t, first.Bytes())
		reloaded, err := LoadEngine(bytes.NewReader(first.Bytes()), fixtureDB(t))
		if err != nil {
			t.Fatalf("re-loading upgraded v%d snapshot: %v", version, err)
		}
		var second bytes.Buffer
		if err := SaveEngine(&second, reloaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("v%d upgrade has no byte fixed point (%d vs %d bytes)", version, first.Len(), second.Len())
		}
		for _, req := range queryCorpus {
			want, err := e.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := upgraded.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, "v"+string(rune('0'+version))+"-upgrade "+req.Query, want, got)
		}
	}
}

// TestMappedLoadParity: an engine serving posting blocks straight out
// of the mapping answers every corpus query bitwise-identically to the
// copying load of the same bytes and to the engine that was dumped.
func TestMappedLoadParity(t *testing.T) {
	e := mutatedEngine(t)
	path, snap := writeSnapFile(t, e)
	heap, err := LoadEngine(bytes.NewReader(snap), fixtureDB(t))
	if err != nil {
		t.Fatal(err)
	}
	mapped := mappedFixture(t, path)
	for _, req := range queryCorpus {
		want, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		viaHeap, err := heap.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		viaMap, err := mapped.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "mapped-vs-dumped "+req.Query, want, viaMap)
		assertIdentical(t, "mapped-vs-heap "+req.Query, viaHeap, viaMap)
	}
}

// TestMappedSaveRoundTrip: saving a mapped-loaded engine reproduces the
// on-disk snapshot byte for byte — the encoder walks mapped posting
// blocks exactly as it walks heap ones.
func TestMappedSaveRoundTrip(t *testing.T) {
	path, snap := writeSnapFile(t, mutatedEngine(t))
	mapped := mappedFixture(t, path)
	var again bytes.Buffer
	if err := SaveEngine(&again, mapped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, again.Bytes()) {
		t.Fatalf("saving the mapped engine changed the snapshot bytes (%d vs %d)", len(snap), again.Len())
	}
}

// drainMappings settles the finalizer-driven mapping counter — earlier
// tests' garbage mappings may still await collection — and returns the
// stable baseline.
func drainMappings() int64 {
	prev := ActiveMappings()
	for stable := 0; stable < 3; {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		if cur := ActiveMappings(); cur == prev {
			stable++
		} else {
			prev, stable = cur, 0
		}
	}
	return prev
}

// gcUntil runs GC cycles until cond holds or the deadline passes —
// mapping release rides finalizers, which need a couple of cycles.
func gcUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached after GC deadline", what)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMappedLifetimeAcrossCompact: the mapping must stay alive exactly
// as long as some index epoch references it. Searches run concurrently
// across the Compact() epoch swap; after compaction rebuilds every
// posting block on the heap, the mapping is released by GC even though
// the engine itself lives on.
func TestMappedLifetimeAcrossCompact(t *testing.T) {
	base := drainMappings()
	e := mutatedEngine(t)
	path, _ := writeSnapFile(t, e)
	eng := mappedFixture(t, path)
	if got := ActiveMappings(); got != base+1 {
		t.Fatalf("ActiveMappings = %d after mapped load, want %d", got, base+1)
	}

	// Mutations over mapped blocks: appends must copy, never write
	// through the read-only pages.
	if _, err := eng.AddAnchorInstance("movie-cast", "zz mapped lifetime movie"); err != nil {
		t.Fatal(err)
	}
	if got := searchTopK(eng, "zz mapped lifetime movie", 3); len(got) == 0 {
		t.Fatal("instance added over the mapped index is not searchable")
	}

	// Hammer searches while the compaction epoch swap happens.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Search(context.Background(), search.Request{Query: "star wars cast", K: 5}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	if _, err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("search failed across the compaction epoch swap: %v", err)
	default:
	}
	if got := searchTopK(eng, "zz mapped lifetime movie", 3); len(got) == 0 {
		t.Fatal("added instance lost across compaction")
	}

	// Compaction rebuilt every block on the heap, so the old epoch —
	// the last holder of the mapping — is garbage now.
	gcUntil(t, "mapping release after compaction", func() bool {
		return ActiveMappings() == base
	})
	runtime.KeepAlive(eng)
}

// TestMappedChurnReloadNoLeak: repeated load/search/drop cycles leave
// no mappings behind once the engines are garbage.
func TestMappedChurnReloadNoLeak(t *testing.T) {
	base := drainMappings()
	path, _ := writeSnapFile(t, mutatedEngine(t))
	for i := 0; i < 5; i++ {
		eng := mappedFixture(t, path)
		if got := searchTopK(eng, "star wars cast", 3); len(got) == 0 {
			t.Fatalf("reload %d: no results", i)
		}
	}
	gcUntil(t, "mapping release after churn", func() bool {
		return ActiveMappings() == base
	})
}

// TestV3BlobCorruption pins the verification boundary: the copying load
// checks the blob's CRC-64 and rejects a flipped posting byte, while
// the mapped load — by design — trusts the blob region it never reads
// at boot.
func TestV3BlobCorruption(t *testing.T) {
	_, snap := writeSnapFile(t, mutatedEngine(t))
	blobLen := v3Blob(t, snap)
	if blobLen == 0 {
		t.Fatal("fixture snapshot has an empty blob")
	}
	bad := append([]byte(nil), snap...)
	bad[16+blobLen/2] ^= 0x40
	if _, err := LoadEngine(bytes.NewReader(bad), fixtureDB(t)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("copy load of a flipped blob byte: err = %v, want ErrChecksum", err)
	}
	badPath := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, mapped, err := LoadEngineFile(badPath, fixtureDB(t))
	if !mapped {
		t.Skip("mapped snapshot path unavailable on this platform")
	}
	if err != nil {
		t.Fatalf("mapped load must trust the blob region, got %v", err)
	}

	// Truncations inside the blob region fail as truncation, not as a
	// misdecoded stream.
	for _, cut := range []uint64{17, 16 + blobLen/2, 16 + blobLen - 1} {
		if _, err := LoadEngine(bytes.NewReader(snap[:cut]), fixtureDB(t)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestV3MetadataFlipSweep flips a high bit at every position across the
// v3 metadata section — block counts, blob offsets, doc lengths, the
// lot — recomputing the trailing checksum each time so the decoder's
// structural validation (not the CRC) is what stands between an
// adversarial count or offset and a crash. Every variant must decode to
// a typed error or a healthy engine: no panics, no allocation bombs,
// no out-of-range blob slices.
func TestV3MetadataFlipSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveEngine(&buf, mutatedEngine(t)); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	blobLen := v3Blob(t, snap)
	metaStart := int(16 + blobLen)
	// Sample ~512 positions across the section with a stride coprime to
	// the record layout, so every field kind gets hit without decoding
	// hundreds of thousands of variants.
	stride := (len(snap) - 4 - metaStart) / 512
	if stride < 1 {
		stride = 1
	}
	// Loading only reads the database, so one fixture serves every flip.
	db := fixtureDB(t)
	loaded, rejected := 0, 0
	for off := metaStart; off < len(snap)-4; off += stride {
		bad := append([]byte(nil), snap...)
		bad[off] ^= 0x80
		rehashV3(bad)
		eng, err := LoadEngine(bytes.NewReader(bad), db)
		if err != nil {
			rejected++
			continue
		}
		loaded++
		// A tolerated flip (a float, a name byte) must still yield a
		// servable engine.
		if _, err := eng.Search(context.Background(), search.Request{Query: "star wars cast", K: 3}); err != nil {
			t.Fatalf("flip at %d: loaded engine cannot search: %v", off, err)
		}
	}
	if rejected == 0 {
		t.Fatal("no metadata flip was rejected — the structural checks cannot be wired in")
	}
	t.Logf("metadata flip sweep: %d rejected, %d tolerated of %d positions", rejected, loaded, len(snap)-4-metaStart)
}

// TestDecoderPreallocClamp: untrusted counts are clamped both by the
// absolute cap and by the bytes provably remaining in the metadata, so
// a lying count cannot commission a huge allocation.
func TestDecoderPreallocClamp(t *testing.T) {
	dec := &decoder{b: make([]byte, 160)}
	if got := dec.prealloc(1<<40, 16); got > 10 {
		t.Fatalf("prealloc(1<<40, 16) over 160 bytes = %d, want <= 10", got)
	}
	if got := dec.prealloc(4, 16); got != 4 {
		t.Fatalf("prealloc(4, 16) = %d, want 4 (honest counts pass through)", got)
	}
	if got := dec.prealloc(maxPrealloc*100, 1); got > maxPrealloc {
		t.Fatalf("prealloc ignored the absolute cap: %d > %d", got, maxPrealloc)
	}
	// Plenty of remaining bytes still get the absolute cap.
	roomy := &decoder{b: make([]byte, 16*maxPrealloc*4)}
	if got := roomy.prealloc(1<<40, 16); got != maxPrealloc {
		t.Fatalf("prealloc over %d bytes = %d, want %d", len(roomy.b), got, maxPrealloc)
	}
}

// TestBlobCopyHugeCount: a corrupt blob length fails fast, via the
// grow-as-bytes-arrive loop, whether or not the source knows its
// length, instead of attempting the full allocation up front. A length
// near 2^64, whose word count overflows, fails the same way.
func TestBlobCopyHugeCount(t *testing.T) {
	if _, err := readBlob(bytes.NewReader(make([]byte, 100)), 1<<40); !errors.Is(err, ErrTruncated) {
		t.Fatalf("sized stream: err = %v, want ErrTruncated", err)
	}
	for _, n := range []uint64{1 << 40, math.MaxUint64} {
		unsized := io.LimitReader(bytes.NewReader(make([]byte, 100)), 100)
		if _, err := readBlob(unsized, n); !errors.Is(err, ErrTruncated) {
			t.Fatalf("unsized stream, n = %d: err = %v, want ErrTruncated", n, err)
		}
	}
}

// TestLoadersAgree: the copying loader and the mapped front end reject
// the same damaged snapshots with the same sentinel or typed error, and
// load the same intact ones, in every format version. (They differ by
// design only on a flipped blob byte; see TestV3BlobCorruption.)
func TestLoadersAgree(t *testing.T) {
	e := mutatedEngine(t)
	st, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	mint := func(version uint16, st *search.EngineState) []byte {
		var buf bytes.Buffer
		if err := encodeStateAt(&buf, e.Catalog().DB(), st, version); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	modified := func(snap []byte, edit func([]byte)) []byte {
		b := append([]byte(nil), snap...)
		edit(b)
		return b
	}
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	ok := func(err error) bool { return err == nil }
	future := func(err error) bool {
		var fv *FutureVersionError
		return errors.As(err, &fv)
	}

	type loadCase struct {
		name string
		snap []byte
		want func(error) bool
	}
	var cases []loadCase
	for _, version := range []uint16{1, 2, 3} {
		snap := mint(version, st)
		v := "v" + string(rune('0'+version)) + " "
		cases = append(cases,
			loadCase{v + "intact", snap, ok},
			loadCase{v + "bad magic", modified(snap, func(b []byte) { b[0] = 'X' }), is(ErrBadMagic)},
			loadCase{v + "future version", modified(snap, func(b []byte) { b[4], b[5] = 0xff, 0x7f }), future},
			loadCase{v + "payload flip", modified(snap, func(b []byte) { b[len(b)-5] ^= 0xff }), is(ErrChecksum)},
			loadCase{v + "checksum flip", modified(snap, func(b []byte) { b[len(b)-1] ^= 0xff }), is(ErrChecksum)},
		)
		for _, cut := range []int{0, 3, 5, 12, 40, len(snap) / 2, len(snap) - 5, len(snap) - 2} {
			cases = append(cases, loadCase{v + "cut at " + strconv.Itoa(cut), snap[:cut], is(ErrTruncated)})
		}
	}
	snap := mint(3, st)
	blobLen := int(v3Blob(t, snap))
	for _, cut := range []int{17, 16 + blobLen/2, 16 + blobLen - 1, 16 + blobLen + 3} {
		cases = append(cases, loadCase{"v3 cut at " + strconv.Itoa(cut), snap[:cut], is(ErrTruncated)})
	}
	swapped, err := e.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	swapped.Docs[0].Slot, swapped.Docs[1].Slot = swapped.Docs[1].Slot, swapped.Docs[0].Slot
	cases = append(cases, loadCase{"v3 slot disorder", mint(3, swapped), is(ErrCorrupt)})

	db := fixtureDB(t)
	for _, c := range cases {
		_, copyErr := LoadEngine(bytes.NewReader(c.snap), db)
		_, _, mapErr := loadMapped(c.snap, nil, db)
		if !c.want(copyErr) || !c.want(mapErr) {
			t.Errorf("%s: copy load err = %v, mapped load err = %v", c.name, copyErr, mapErr)
		}
	}
}
