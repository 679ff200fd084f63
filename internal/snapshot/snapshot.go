// Package snapshot persists a built search engine to a versioned binary
// format and streams it back — the offline/online split the qunits
// paper assumes: qunit derivation and indexing are "an offline process,
// much like the index generation phase in IR systems", and serving
// should not repeat them on every process start.
//
// # Format
//
// A snapshot is one self-describing binary blob:
//
//	magic    4 bytes  "QSNP"
//	version  uint16   little-endian format version (currently 3)
//	payload  -        version-defined body (see below)
//	checksum uint32   little-endian CRC-32C over magic+version+payload
//	                  (version 3 excludes the posting blob — see below)
//
// The version-1 payload, in order: the scorer (kind byte + parameters),
// the five scoring option weights, the synonym table, the shard count,
// a database fingerprint (name, table count, row count, CRC-64 content
// hash over every cell), the catalog in
// the core codec's JSON wire format (definitions with learned
// utilities), every indexed instance in index-insertion order (rendered
// presentation, provenance, utility, analyzed terms), and the exact
// running total document length. Integers are unsigned varints, floats
// are IEEE-754 bits little-endian, strings are length-prefixed UTF-8.
//
// The version-2 payload is the version-1 payload followed by: the
// exhaustive-scorer debugging flag (one byte), the index's global slot
// count and each document's slot id (so removal tombstones — and with
// them shard assignment — are reproduced exactly), and the compressed
// posting lists of every shard: per sorted term, the list's live count
// and stale-safe metadata aggregates, then each block's header
// (first/last doc, posting count, max TF, min length), its
// delta/varint-encoded doc-id bytes verbatim, and its TF array. A v2
// load installs these lists wholesale instead of re-deriving postings
// from the documents, reproducing the serving index — block boundaries,
// tombstones, and block-max metadata included — bit for bit.
//
// The version-3 layout restructures the file so the posting payload is
// directly servable via mmap:
//
//	magic     4 bytes   "QSNP"
//	version   uint16    3, little-endian
//	blobLen   uint64    posting-blob byte length, little-endian
//	pad       2 bytes   zero (the blob starts at offset 16, 8-aligned)
//	blob      blobLen   posting block payloads (below)
//	metadata  -         blobCRC64, then the v1 payload, then the v2
//	                    extras with per-block blob offsets instead of
//	                    inline payloads
//	checksum  uint32    CRC-32C over magic..pad + metadata (NOT the blob)
//
// The blob holds, for every posting block in shard/term/block order:
// padding up to the next 8-byte boundary, the block's TFs as
// contiguous little-endian IEEE-754 float64s, then its delta/varint
// doc-id gap bytes verbatim. Block metadata (in the hashed metadata
// section) stores each block's TF-region offset and gap-byte length;
// the doc-gap region is implied at tfsOff + 8·N. Because every TF
// region is 8-aligned, a loader may mmap the file and hand the ir
// layer zero-copy float64 views of the mapped bytes; a copying loader
// instead reads the blob into one aligned heap buffer and builds the
// same views over that. Both loaders then run one decoder over
// in-memory bytes. blobCRC64 is a CRC-64/ECMA over the blob, verified
// on copy loads; mapped loads skip it (hashing the whole blob would
// defeat O(1) boot) and trust the kernel to page in exactly what was
// written.
//
// # Compatibility rules
//
//   - The magic never changes; anything else is ErrBadMagic.
//   - A reader accepts exactly the versions it knows — currently 1, 2
//     and 3. A higher version is *FutureVersionError (upgrade the
//     binary, not the snapshot); a version no longer supported fails
//     the same way version 0 does. A v1 snapshot restores by replaying
//     its documents (live documents compact into fresh slots; rankings
//     are unaffected).
//   - Any payload change bumps the version. There are no optional or
//     skippable fields inside a version.
//   - The checksum is verified before any decoded state is used.
//
// # Guarantees
//
// LoadEngine over the same database reproduces the dumped engine
// exactly: posting lists, shard layout, collection statistics, learned
// utilities — so Search returns bitwise-identical scores and explain
// payloads (parity-enforced by tests here and in internal/server). The
// database itself is not part of the snapshot; a fingerprint mismatch
// is *DatabaseMismatchError.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/crc64"
	"io"
	"math"
	"os"
	"sort"

	"qunits/internal/ir"
	"qunits/internal/relational"
	"qunits/internal/search"
)

// FormatVersion is the snapshot format version this package writes.
const FormatVersion = 3

// minReadVersion is the oldest format version this package still loads.
const minReadVersion = 1

// magic identifies a qunits engine snapshot.
var magic = [4]byte{'Q', 'S', 'N', 'P'}

// crcTable is the CRC-32C (Castagnoli) polynomial table the trailing
// checksum uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrBadMagic reports a stream that is not a qunits engine snapshot.
	ErrBadMagic = errors.New("snapshot: bad magic (not a qunits engine snapshot)")
	// ErrTruncated reports a snapshot that ends mid-structure.
	ErrTruncated = errors.New("snapshot: truncated snapshot")
	// ErrChecksum reports a snapshot whose trailing CRC-32C does not
	// match its content.
	ErrChecksum = errors.New("snapshot: checksum mismatch (corrupt snapshot)")
	// ErrCorrupt reports a snapshot whose structure decodes to
	// impossible values (an unknown scorer kind, an oversized count).
	ErrCorrupt = errors.New("snapshot: corrupt snapshot")
)

// FutureVersionError reports a snapshot written by a newer format
// version than this binary understands.
type FutureVersionError struct {
	// Version is the snapshot's format version.
	Version uint16
}

// Error implements error.
func (e *FutureVersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d is newer than the supported %d", e.Version, FormatVersion)
}

// DatabaseMismatchError reports a snapshot loaded against a database
// other than the one it was saved over.
type DatabaseMismatchError struct {
	// Want describes the database the snapshot was saved over.
	Want string
	// Got describes the database the load was attempted against.
	Got string
}

// Error implements error.
func (e *DatabaseMismatchError) Error() string {
	return fmt.Sprintf("snapshot: database mismatch: snapshot is over %s, load attempted against %s", e.Want, e.Got)
}

// UnsupportedScorerError reports a save of an engine whose scorer the
// format cannot serialize (only the stock ir.BM25 and ir.TFIDF are
// parameterizable on the wire).
type UnsupportedScorerError struct {
	// Name is the scorer's self-reported name.
	Name string
}

// Error implements error.
func (e *UnsupportedScorerError) Error() string {
	return fmt.Sprintf("snapshot: cannot serialize custom scorer %q (only bm25 and tfidf)", e.Name)
}

// Scorer kind tags on the wire.
const (
	scorerBM25  = 1
	scorerTFIDF = 2
)

// Decode-time sanity caps: a corrupt length prefix must fail cleanly,
// not attempt a multi-gigabyte allocation before the checksum check.
// Counts additionally bound only the *initial* slice capacity
// (maxPrealloc, and what the remaining bytes could encode); the slices
// grow by append, so a corrupt count fails with ErrTruncated as soon
// as the metadata runs dry rather than allocating count×elemsize up
// front.
const (
	maxStringLen = 1 << 28 // 256 MiB per string
	maxCount     = 1 << 26 // 64M elements per collection
	maxPrealloc  = 1 << 12 // elements preallocated per collection
)

// SaveEngine writes the engine's full state as one snapshot blob. The
// engine keeps serving while the state is captured (a read-lock
// snapshot); the write itself happens outside the engine lock.
func SaveEngine(w io.Writer, e *search.Engine) error {
	st, err := e.DumpState()
	if err != nil {
		return err
	}
	return encodeState(w, e.Catalog().DB(), st)
}

// SaveState writes an already-captured engine state as one snapshot
// blob over the database it was dumped from. It is SaveEngine with the
// capture step lifted out, for callers that must pair the state with
// other data captured in the same critical section — the cluster
// layer's follower bootstrap records the mutation-log position
// atomically with the state via search.Engine.DumpStateWith and then
// encodes here.
func SaveState(w io.Writer, db *relational.Database, st *search.EngineState) error {
	return encodeState(w, db, st)
}

// LoadEngine reads a snapshot and rebuilds a serving-ready engine over
// the given database — which must be the database the snapshot was
// saved over (same schema and rows; the fingerprint check catches
// drift). On success the engine answers searches bitwise-identically to
// the engine that was saved.
//
// LoadEngine reads r to EOF. A v3 posting blob is copied into one
// aligned heap buffer that the engine keeps; the metadata after it is
// read into a buffer dropped once decoded.
func LoadEngine(r io.Reader, db *relational.Database) (*search.Engine, error) {
	size := int64(-1)
	switch s := r.(type) {
	case interface{ Len() int }:
		size = int64(s.Len())
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil {
			size = fi.Size()
		}
	}
	var head [v3HeaderLen]byte
	n, err := io.ReadFull(r, head[:])
	if err != nil && !isEOF(err) {
		return nil, err
	}
	version, headLen, err := checkVersion(head[:n])
	if err != nil {
		return nil, err
	}
	var blob []byte
	if version >= 3 {
		if blob, err = readBlob(r, binary.LittleEndian.Uint64(head[6:14])); err != nil {
			return nil, err
		}
	}
	// Before v3 the header is 6 bytes, so the metadata opens with
	// head[headLen:n].
	meta, err := readMeta(r, head[headLen:n], size-int64(n)-int64(len(blob)))
	if err != nil {
		return nil, err
	}
	st, err := decodeState(head[:headLen], blob, meta, true, db)
	if err != nil {
		return nil, err
	}
	return search.RestoreEngine(db, st)
}

// LoadEngineFile loads a snapshot from a file, serving posting blocks
// directly out of a read-only memory mapping when the snapshot version
// (3+) allows it. mapped reports whether it did. Where the file cannot
// be mapped (an empty file, or a platform without mmap) it falls back
// to LoadEngine on the untouched file; a v1 or v2 file is decoded from
// the mapping into heap copies and the mapping released at once.
//
// A mapped load is O(metadata), not O(corpus): posting payloads are
// never touched at load time, only paged in on first search. The
// restored engine anchors the mapping for exactly as long as any
// search can reach the mapped bytes (see Mapping); callers need no
// explicit unmap.
func LoadEngineFile(path string, db *relational.Database) (eng *search.Engine, mapped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	data, err := mmapFile(f)
	if err != nil {
		eng, err = LoadEngine(f, db)
		return eng, false, err
	}
	m := newMapping(data)
	eng, mapped, err = loadMapped(data, m, db)
	if !mapped {
		m.Close()
	}
	return eng, mapped, err
}

// loadMapped is the mapped front end: it restores an engine from a
// whole snapshot held in memory. A v3 snapshot's posting blocks alias
// data in place, their blob CRC-64 unverified, and owner (the Mapping
// behind data, if any) is anchored to the engine; inPlace reports
// that. Older versions decode to heap copies that do not reference
// data.
func loadMapped(data []byte, owner any, db *relational.Database) (eng *search.Engine, inPlace bool, err error) {
	head, blob, meta, err := splitSnapshot(data)
	if err != nil {
		return nil, false, err
	}
	st, err := decodeState(head, blob, meta, false, db)
	if err != nil {
		return nil, false, err
	}
	inPlace = len(head) == v3HeaderLen
	if inPlace {
		st.TrustedPostings = true
		st.PostingsOwner = owner
	}
	if eng, err = search.RestoreEngine(db, st); err != nil {
		return nil, false, err
	}
	return eng, inPlace, nil
}

// splitSnapshot cuts a whole in-memory snapshot into its header, its
// v3 posting blob (nil before v3) and the metadata after the blob.
func splitSnapshot(data []byte) (head, blob, meta []byte, err error) {
	_, headLen, err := checkVersion(data[:min(len(data), v3HeaderLen)])
	if err != nil {
		return nil, nil, nil, err
	}
	if headLen == v3HeaderLen {
		blobLen := binary.LittleEndian.Uint64(data[6:14])
		if blobLen > uint64(len(data)-headLen) {
			return nil, nil, nil, fmt.Errorf("%w: %d-byte blob in %d-byte file", ErrTruncated, blobLen, len(data))
		}
		blobEnd := headLen + int(blobLen)
		blob = data[headLen:blobEnd:blobEnd]
	}
	return data[:headLen], blob, data[headLen+len(blob):], nil
}

// fingerprint summarizes a database for the compatibility check: its
// name, shape counts, and a CRC-64 over every cell value in sorted
// table order — so two universes that merely coincide in name and row
// counts (easy with randomized generators) cannot be confused. Cost is
// one linear pass over the cells, negligible next to the load itself.
func fingerprint(db *relational.Database) (name string, tables, rows int, content uint64) {
	h := crc64.New(contentTable)
	names := db.TableNames()
	sort.Strings(names)
	for _, tn := range names {
		h.Write([]byte(tn))
		h.Write([]byte{0})
		db.Table(tn).Scan(func(id int, row relational.Row) bool {
			for _, v := range row {
				h.Write([]byte(v.Render()))
				h.Write([]byte{0x1f})
			}
			h.Write([]byte{'\n'})
			return true
		})
	}
	return db.Name(), len(names), db.TotalRows(), h.Sum64()
}

// contentTable is the CRC-64 polynomial table the database content
// fingerprint uses.
var contentTable = crc64.MakeTable(crc64.ECMA)

// --- encoding ---------------------------------------------------------------

// encoder serializes primitives to w while folding every written byte
// into the running checksum. Errors are sticky.
type encoder struct {
	w   *bufio.Writer
	crc hash.Hash32
	err error
}

func (e *encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(p); err != nil {
		e.err = err
		return
	}
	e.crc.Write(p)
}

// writeRaw writes bytes WITHOUT folding them into the trailing
// checksum — only the v3 posting blob goes through here, which carries
// its own CRC-64 so mapped loads can skip hashing it.
func (e *encoder) writeRaw(p []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(p); err != nil {
		e.err = err
	}
}

func (e *encoder) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	e.write(buf[:binary.PutUvarint(buf[:], v)])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.write([]byte(s))
}

func (e *encoder) f64(v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	e.write(buf[:])
}

// stringMap writes a map in sorted key order, so identical state yields
// identical bytes (and an identical checksum) on every save.
func (e *encoder) stringMap(m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.str(m[k])
	}
}

func encodeState(w io.Writer, db *relational.Database, st *search.EngineState) error {
	return encodeStateAt(w, db, st, FormatVersion)
}

// encodeStateAt writes the state at a specific format version. Only the
// current version is written in production; older versions are kept
// writable so upgrade-compatibility tests can mint genuine old blobs.
// blobAlign is the alignment of every TF region in the v3 posting
// blob — what lets a mapped load view TFs as []float64 in place.
const blobAlign = 8

// blobLayout walks the posting lists in encode order and returns the
// blob's total length and each block's TF-region offset, both derived
// purely arithmetically (the write pass must then produce exactly
// these offsets).
func blobLayout(postings [][]ir.TermPostings) (blobLen uint64, tfsOffs []uint64) {
	var off uint64
	for _, lists := range postings {
		for _, tp := range lists {
			for _, b := range tp.Blocks {
				off = (off + blobAlign - 1) &^ (blobAlign - 1)
				tfsOffs = append(tfsOffs, off)
				off += uint64(len(b.TFs)) * 8
				off += uint64(len(b.Docs))
			}
		}
	}
	return off, tfsOffs
}

func encodeStateAt(w io.Writer, db *relational.Database, st *search.EngineState, version uint16) error {
	// Buffered: the encoder emits each varint and string separately, and
	// unbuffered that is one write call apiece.
	enc := &encoder{w: bufio.NewWriterSize(w, 64<<10), crc: crc32.New(crcTable)}
	enc.write(magic[:])
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], version)
	enc.write(ver[:])

	var tfsOffs []uint64
	if version >= 3 {
		// Header tail: blob length + alignment pad, then the blob itself
		// outside the trailing checksum, then its own CRC-64 opening the
		// hashed metadata section.
		blobLen, offs := blobLayout(st.Postings)
		tfsOffs = offs
		var hdr [10]byte
		binary.LittleEndian.PutUint64(hdr[:8], blobLen)
		enc.write(hdr[:])

		bh := crc64.New(contentTable)
		var off uint64
		var padBuf [blobAlign]byte
		var tfBuf [8]byte
		for _, lists := range st.Postings {
			for _, tp := range lists {
				for _, b := range tp.Blocks {
					if pad := (blobAlign - off%blobAlign) % blobAlign; pad > 0 {
						enc.writeRaw(padBuf[:pad])
						bh.Write(padBuf[:pad])
						off += pad
					}
					for _, tf := range b.TFs {
						binary.LittleEndian.PutUint64(tfBuf[:], math.Float64bits(tf))
						enc.writeRaw(tfBuf[:])
						bh.Write(tfBuf[:])
					}
					enc.writeRaw(b.Docs)
					bh.Write(b.Docs)
					off += uint64(len(b.TFs))*8 + uint64(len(b.Docs))
				}
			}
		}
		var bc [8]byte
		binary.LittleEndian.PutUint64(bc[:], bh.Sum64())
		enc.write(bc[:])
	}

	switch s := st.Options.Scorer.(type) {
	case ir.BM25:
		enc.write([]byte{scorerBM25})
		enc.f64(s.K1)
		enc.f64(s.B)
	case ir.TFIDF:
		enc.write([]byte{scorerTFIDF})
		enc.f64(0)
		enc.f64(0)
	default:
		return &UnsupportedScorerError{Name: st.Options.Scorer.Name()}
	}
	enc.f64(st.Options.LabelWeight)
	enc.f64(st.Options.KeywordWeight)
	enc.f64(st.Options.TypeBoost)
	enc.f64(st.Options.UtilityInfluence)
	enc.f64(st.Options.AnchorBoost)
	enc.stringMap(st.Options.Synonyms)
	enc.uvarint(uint64(st.Shards))

	name, tables, rows, content := fingerprint(db)
	enc.str(name)
	enc.uvarint(uint64(tables))
	enc.uvarint(uint64(rows))
	var ch [8]byte
	binary.LittleEndian.PutUint64(ch[:], content)
	enc.write(ch[:])

	enc.str(string(st.CatalogJSON))

	enc.uvarint(uint64(len(st.Docs)))
	for _, d := range st.Docs {
		enc.str(d.DefName)
		enc.stringMap(d.Params)
		enc.str(d.XML)
		enc.str(d.Text)
		enc.str(d.ContextText)
		enc.f64(d.Utility)
		enc.uvarint(uint64(len(d.Tuples)))
		for _, tr := range d.Tuples {
			enc.str(tr.Table)
			enc.uvarint(uint64(tr.Row))
		}
		enc.uvarint(uint64(len(d.Terms.Terms)))
		for _, tc := range d.Terms.Terms {
			enc.str(tc.Term)
			enc.f64(tc.TF)
		}
		enc.f64(d.Terms.Length)
	}
	enc.f64(st.IndexTotalLen)

	if version >= 2 {
		if st.Options.ExhaustiveScorer {
			enc.write([]byte{1})
		} else {
			enc.write([]byte{0})
		}
		enc.uvarint(uint64(st.Slots))
		for _, d := range st.Docs {
			enc.uvarint(uint64(d.Slot))
		}
		enc.uvarint(uint64(len(st.Postings)))
		blockIdx := 0
		for _, lists := range st.Postings {
			enc.uvarint(uint64(len(lists)))
			for _, tp := range lists {
				enc.str(tp.Term)
				enc.uvarint(uint64(tp.Live))
				enc.f64(tp.MaxTF)
				enc.f64(tp.MinTF)
				enc.f64(tp.MinLen)
				enc.uvarint(uint64(tp.LastDoc))
				enc.uvarint(uint64(len(tp.Blocks)))
				for _, b := range tp.Blocks {
					enc.uvarint(uint64(b.FirstDoc))
					enc.uvarint(uint64(b.LastDoc))
					enc.uvarint(uint64(b.N))
					if version >= 3 {
						// Payload lives in the blob; reference it. The
						// uvarints lead and the floats trail so a bit flip
						// in the file's final bytes lands in a float (a
						// checksum-caught value change), never in a length.
						enc.uvarint(tfsOffs[blockIdx])
						enc.uvarint(uint64(len(b.Docs)))
						blockIdx++
						enc.f64(b.MaxTF)
						enc.f64(b.MinLen)
						continue
					}
					enc.f64(b.MaxTF)
					enc.f64(b.MinLen)
					enc.uvarint(uint64(len(b.Docs)))
					enc.write(b.Docs)
					for _, tf := range b.TFs {
						enc.f64(tf)
					}
				}
			}
		}
	}

	if enc.err != nil {
		return fmt.Errorf("snapshot: writing: %w", enc.err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], enc.crc.Sum32())
	if _, err := enc.w.Write(sum[:]); err != nil {
		return fmt.Errorf("snapshot: writing checksum: %w", err)
	}
	if err := enc.w.Flush(); err != nil {
		return fmt.Errorf("snapshot: writing: %w", err)
	}
	return nil
}

// --- decoding ---------------------------------------------------------------

// v3HeaderLen is the length of the v3 header: magic, version, blob
// length and pad. Older versions end the header after the version.
const v3HeaderLen = 16

// checkVersion validates a snapshot's header, given up to its first
// v3HeaderLen bytes: the magic, then the format version, then (from
// v3) the zero pad. It returns the version and the header length that
// version uses. Both loaders call it before they read past the header,
// so they report a bad header identically.
func checkVersion(head []byte) (version uint16, headLen int, err error) {
	if len(head) < 4 {
		return 0, 0, ErrTruncated
	}
	if [4]byte(head[:4]) != magic {
		return 0, 0, ErrBadMagic
	}
	if len(head) < 6 {
		return 0, 0, ErrTruncated
	}
	version = binary.LittleEndian.Uint16(head[4:6])
	if version > FormatVersion {
		return 0, 0, &FutureVersionError{Version: version}
	}
	if version < minReadVersion {
		return 0, 0, fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, version)
	}
	if version < 3 {
		return version, 6, nil
	}
	if len(head) < v3HeaderLen {
		return 0, 0, ErrTruncated
	}
	if head[14] != 0 || head[15] != 0 {
		return 0, 0, fmt.Errorf("%w: nonzero header padding", ErrCorrupt)
	}
	return version, v3HeaderLen, nil
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// maxBlobLen bounds a v3 blob length before readBlob sizes anything by
// it: no stream is that long, and the word arithmetic cannot overflow.
const maxBlobLen = 1 << 62

// readBlob reads the n-byte v3 posting blob from r into one
// 8-byte-aligned heap buffer, the copying stand-in for a mapping. The
// buffer grows geometrically as bytes actually arrive, so a corrupt
// huge n in a truncated stream fails with ErrTruncated when the stream
// runs dry instead of attempting the full allocation up front.
func readBlob(r io.Reader, n uint64) ([]byte, error) {
	if n > maxBlobLen {
		return nil, ErrTruncated
	}
	nWords := (n + 7) / 8
	words := make([]float64, min(nWords, 1<<13)) // start at ≤64 KiB
	for got := uint64(0); got < n; {
		if got == uint64(len(words))*8 {
			grown := make([]float64, min(nWords, 2*uint64(len(words))))
			copy(grown, words)
			words = grown
		}
		m, err := io.ReadFull(r, f64Bytes(words)[got:min(uint64(len(words))*8, n)])
		got += uint64(m)
		if isEOF(err) {
			return nil, ErrTruncated
		}
		if err != nil {
			return nil, err
		}
	}
	if nWords == 0 {
		return nil, nil
	}
	return f64Bytes(words)[:n], nil
}

// readMeta reads the rest of r after prefix into one buffer. sizeHint
// is the number of bytes r is expected to hold (negative if unknown);
// it sizes the buffer once, and a wrong hint costs only a regrow.
func readMeta(r io.Reader, prefix []byte, sizeHint int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, len(prefix)+int(max(sizeHint, 0))+bytes.MinRead))
	buf.Write(prefix)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decoder reads primitives off an in-memory metadata section. Errors
// are sticky; running off the end is ErrTruncated.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// next consumes and returns the next n bytes, which alias d.b.
func (d *decoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b)-d.off {
		d.fail(ErrTruncated)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// prealloc caps an untrusted element count down to a safe initial
// slice capacity: at most maxPrealloc elements, and never more than
// the remaining bytes could possibly encode given a minimum on-wire
// element size.
func (d *decoder) prealloc(n, minElemSize int) int {
	return min(n, maxPrealloc, (len(d.b)-d.off)/minElemSize)
}

func (d *decoder) byte() byte {
	if p := d.next(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.fail(ErrTruncated)
	case n < 0:
		d.fail(fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt))
	default:
		d.off += n
	}
	return v
}

func (d *decoder) count(what string) int {
	n := d.uvarint()
	if n > maxCount {
		d.fail(fmt.Errorf("%w: %s count %d exceeds sanity cap", ErrCorrupt, what, n))
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, bounded by maxStringLen.
// The result aliases d.b; callers copy what they keep.
func (d *decoder) bytes(what string) []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxStringLen {
		d.fail(fmt.Errorf("%w: %s length %d exceeds sanity cap", ErrCorrupt, what, n))
		return nil
	}
	return d.next(int(n))
}

func (d *decoder) str() string {
	return string(d.bytes("string"))
}

func (d *decoder) f64() float64 {
	if p := d.next(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (d *decoder) stringMap() map[string]string {
	n := d.count("map")
	if n == 0 {
		return nil
	}
	m := make(map[string]string, d.prealloc(n, 2))
	for i := 0; i < n; i++ {
		k := d.str()
		m[k] = d.str()
	}
	return m
}

// decodeState is the one snapshot decoder; both loaders feed it. head
// is the header checkVersion accepted, blob the v3 posting blob (nil
// before v3), and meta everything after the blob, trailing checksum
// included. Strings and v2 gap bytes are copied out, so only v3
// posting blocks alias blob, and nothing aliases head or meta.
// checkBlob verifies the blob's CRC-64 (copy loads); a mapped load
// leaves it unread. The trailing CRC-32C over head and the decoded
// metadata is checked before the state is returned.
func decodeState(head, blob, meta []byte, checkBlob bool, db *relational.Database) (*search.EngineState, error) {
	dec := &decoder{b: meta}
	version := binary.LittleEndian.Uint16(head[4:6])
	blobLen := uint64(len(blob))

	// v3: the hashed metadata opens with the blob's CRC-64.
	if version >= 3 {
		bc := dec.next(8)
		if dec.err != nil {
			return nil, dec.err
		}
		if checkBlob && crc64.Checksum(blob, contentTable) != binary.LittleEndian.Uint64(bc) {
			return nil, fmt.Errorf("%w: posting blob CRC-64 mismatch", ErrChecksum)
		}
	}

	st := &search.EngineState{}
	kind := dec.byte()
	k1, b := dec.f64(), dec.f64()
	switch kind {
	case scorerBM25:
		st.Options.Scorer = ir.BM25{K1: k1, B: b}
	case scorerTFIDF:
		st.Options.Scorer = ir.TFIDF{}
	default:
		if dec.err == nil {
			return nil, fmt.Errorf("%w: unknown scorer kind %d", ErrCorrupt, kind)
		}
	}
	st.Options.LabelWeight = dec.f64()
	st.Options.KeywordWeight = dec.f64()
	st.Options.TypeBoost = dec.f64()
	st.Options.UtilityInfluence = dec.f64()
	st.Options.AnchorBoost = dec.f64()
	st.Options.Synonyms = dec.stringMap()
	st.Shards = int(dec.uvarint())

	wantName := dec.str()
	wantTables := int(dec.uvarint())
	wantRows := int(dec.uvarint())
	wantContent := dec.next(8)

	st.CatalogJSON = []byte(dec.str())

	nDocs := dec.count("doc")
	if dec.err == nil {
		st.Docs = make([]search.DocState, 0, dec.prealloc(nDocs, 16))
	}
	for i := 0; i < nDocs && dec.err == nil; i++ {
		doc := search.DocState{
			DefName: dec.str(),
			Params:  dec.stringMap(),
		}
		doc.XML = dec.str()
		doc.Text = dec.str()
		doc.ContextText = dec.str()
		doc.Utility = dec.f64()
		nTuples := dec.count("tuple")
		if dec.err == nil && nTuples > 0 {
			doc.Tuples = make([]relational.TupleRef, 0, dec.prealloc(nTuples, 2))
			for j := 0; j < nTuples && dec.err == nil; j++ {
				doc.Tuples = append(doc.Tuples, relational.TupleRef{Table: dec.str(), Row: int(dec.uvarint())})
			}
		}
		nTerms := dec.count("term")
		if dec.err == nil && nTerms > 0 {
			doc.Terms.Terms = make([]ir.TermCount, 0, dec.prealloc(nTerms, 9))
			for j := 0; j < nTerms && dec.err == nil; j++ {
				doc.Terms.Terms = append(doc.Terms.Terms, ir.TermCount{Term: dec.str(), TF: dec.f64()})
			}
		}
		doc.Terms.Length = dec.f64()
		st.Docs = append(st.Docs, doc)
	}
	st.IndexTotalLen = dec.f64()

	if version >= 2 {
		switch flag := dec.byte(); flag {
		case 0:
		case 1:
			st.Options.ExhaustiveScorer = true
		default:
			if dec.err == nil {
				return nil, fmt.Errorf("%w: bad exhaustive-scorer flag %d", ErrCorrupt, flag)
			}
		}
		st.Slots = dec.count("slot")
		prevSlot := -1
		for i := range st.Docs {
			slot := int(dec.uvarint())
			if dec.err == nil && (slot <= prevSlot || slot >= st.Slots) {
				return nil, fmt.Errorf("%w: doc %d slot %d out of order or range", ErrCorrupt, i, slot)
			}
			st.Docs[i].Slot = slot
			prevSlot = slot
		}
		nShardLists := dec.count("postings shard")
		if dec.err == nil && nShardLists != st.Shards {
			return nil, fmt.Errorf("%w: %d postings shards for %d index shards", ErrCorrupt, nShardLists, st.Shards)
		}
		if dec.err == nil {
			st.Postings = make([][]ir.TermPostings, 0, dec.prealloc(nShardLists, 1))
		}
		for si := 0; si < nShardLists && dec.err == nil; si++ {
			nTerms := dec.count("postings term")
			lists := make([]ir.TermPostings, 0, dec.prealloc(nTerms, 16))
			for ti := 0; ti < nTerms && dec.err == nil; ti++ {
				tp := ir.TermPostings{
					Term:    dec.str(),
					Live:    int(dec.uvarint()),
					MaxTF:   dec.f64(),
					MinTF:   dec.f64(),
					MinLen:  dec.f64(),
					LastDoc: int(dec.uvarint()),
				}
				nBlocks := dec.count("postings block")
				tp.Blocks = make([]ir.PostingBlock, 0, dec.prealloc(nBlocks, 16))
				for bi := 0; bi < nBlocks && dec.err == nil; bi++ {
					b := ir.PostingBlock{
						FirstDoc: int(dec.uvarint()),
						LastDoc:  int(dec.uvarint()),
						N:        int(dec.uvarint()),
					}
					if version >= 3 {
						tfsOff := dec.uvarint()
						docsLen := dec.uvarint()
						b.MaxTF = dec.f64()
						b.MinLen = dec.f64()
						if dec.err != nil {
							break
						}
						if b.N < 1 || b.N > maxCount {
							return nil, fmt.Errorf("%w: postings block of %d entries", ErrCorrupt, b.N)
						}
						// The block's payload is a [tfsOff, tfsOff+8N)
						// float region followed by docsLen gap bytes; both
						// must fall inside the blob, and the float region
						// must keep the encoder's 8-byte alignment.
						if tfsOff%blobAlign != 0 || tfsOff > blobLen || uint64(b.N)*8 > blobLen-tfsOff {
							return nil, fmt.Errorf("%w: postings TF region [%d, +%d×8) outside %d-byte blob", ErrCorrupt, tfsOff, b.N, blobLen)
						}
						docsOff := tfsOff + uint64(b.N)*8
						if docsLen > blobLen-docsOff {
							return nil, fmt.Errorf("%w: postings gap region [%d, +%d) outside %d-byte blob", ErrCorrupt, docsOff, docsLen, blobLen)
						}
						// Full slice expressions force len == cap so any
						// later append (index mutation) reallocates to the
						// heap instead of writing through the blob.
						tfBytes := blob[tfsOff:docsOff:docsOff]
						if tfs, ok := f64View(tfBytes); ok {
							b.TFs = tfs
						} else {
							// Big-endian host (or an unaligned copy buffer,
							// which f64Bytes-backed buffers never are):
							// decode a heap copy.
							b.TFs = make([]float64, b.N)
							for i := range b.TFs {
								b.TFs[i] = math.Float64frombits(binary.LittleEndian.Uint64(tfBytes[i*8:]))
							}
						}
						b.Docs = blob[docsOff : docsOff+docsLen : docsOff+docsLen]
						tp.Blocks = append(tp.Blocks, b)
						continue
					}
					b.MaxTF = dec.f64()
					b.MinLen = dec.f64()
					b.Docs = bytes.Clone(dec.bytes("postings gaps"))
					if dec.err == nil && (b.N < 1 || b.N > maxCount) {
						return nil, fmt.Errorf("%w: postings block of %d entries", ErrCorrupt, b.N)
					}
					if dec.err == nil {
						b.TFs = make([]float64, 0, dec.prealloc(b.N, 8))
						for i := 0; i < b.N && dec.err == nil; i++ {
							b.TFs = append(b.TFs, dec.f64())
						}
					}
					tp.Blocks = append(tp.Blocks, b)
				}
				lists = append(lists, tp)
			}
			st.Postings = append(st.Postings, lists)
		}
	}

	if dec.err != nil {
		return nil, dec.err
	}

	// Verify the trailing checksum before trusting anything decoded.
	sum := crc32.Update(crc32.Checksum(head, crcTable), crcTable, meta[:dec.off])
	stored := dec.next(4)
	if dec.err != nil {
		return nil, dec.err
	}
	if binary.LittleEndian.Uint32(stored) != sum {
		return nil, ErrChecksum
	}

	gotName, gotTables, gotRows, gotContent := fingerprint(db)
	wantHash := binary.LittleEndian.Uint64(wantContent)
	if gotName != wantName || gotTables != wantTables || gotRows != wantRows || gotContent != wantHash {
		return nil, &DatabaseMismatchError{
			Want: fmt.Sprintf("%q (%d tables, %d rows, content %016x)", wantName, wantTables, wantRows, wantHash),
			Got:  fmt.Sprintf("%q (%d tables, %d rows, content %016x)", gotName, gotTables, gotRows, gotContent),
		}
	}
	return st, nil
}
