package ir

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compressed posting lists.
//
// A term's postings are stored as a chain of fixed-capacity blocks. Doc
// ids are sorted ascending (documents are always appended in id order)
// and delta/varint-compressed: the block header carries the first and
// last doc id, and each subsequent posting stores only the uvarint gap
// to its predecessor. Weighted term frequencies ride alongside as raw
// float64s (they are arbitrary weighted sums, not small integers).
//
// Each block additionally carries max-score metadata — the maximum TF
// and the minimum weighted document length over the postings it holds —
// from which a scorer can derive an upper bound on any contribution the
// block can produce. Removal tombstones a document (its docLen drops to
// 0 and iteration skips it) WITHOUT touching block metadata: a stale
// MaxTF can only overstate and a stale MinLen can only understate, so
// every derived bound stays a true upper bound. That staleness trade is
// what makes Remove O(query terms) instead of an O(postings) re-encode.

// blockSize is the posting capacity of one block. 128 keeps a block's
// deltas within one or two cache lines for dense lists while giving
// block-level skipping enough granularity to pay off.
const blockSize = 128

// PostingBlock is one fixed-capacity chunk of a compressed posting
// list. It is exported (together with TermPostings) so the snapshot
// layer can persist posting lists verbatim; other packages must treat
// it as opaque.
type PostingBlock struct {
	// Docs holds the uvarint-encoded doc-id gaps of postings 1..N-1;
	// posting 0's doc id is FirstDoc and has no bytes here.
	Docs []byte
	// TFs holds the weighted term frequency of every posting, 0..N-1.
	TFs []float64
	// N is the number of postings in the block.
	N int
	// FirstDoc and LastDoc are the block's doc-id range, inclusive.
	FirstDoc, LastDoc int
	// MaxTF is the maximum TF over the block's postings (possibly stale
	// high after removals — still a valid upper bound).
	MaxTF float64
	// MinLen is the minimum weighted document length over the block's
	// postings at append time (possibly stale low after removals — still
	// a valid lower bound).
	MinLen float64
}

// TermPostings is the externalized compressed posting list of one term,
// the unit the snapshot layer persists and restores.
type TermPostings struct {
	// Term is the indexed term.
	Term string
	// Live is the number of non-tombstoned postings.
	Live int
	// MaxTF, MinLen, MinTF are the list-level metadata aggregates
	// (stale-safe, like the per-block ones).
	MaxTF, MinLen, MinTF float64
	// LastDoc is the highest doc id ever appended.
	LastDoc int
	// Blocks is the block chain in doc-id order.
	Blocks []PostingBlock
}

// postingList is the in-index form of a term's compressed postings.
type postingList struct {
	blocks []PostingBlock
	live   int     // non-tombstoned postings
	total  int     // all postings, tombstones included
	maxTF  float64 // stale-safe aggregates over every posting ever added
	minTF  float64
	minLen float64
	last   int // highest doc id appended
}

// add appends one posting. Doc ids must be strictly increasing across
// calls; dl is the document's weighted length at append time.
func (pl *postingList) add(doc int, tf, dl float64) {
	if n := len(pl.blocks); n == 0 || pl.blocks[n-1].N >= blockSize {
		pl.blocks = append(pl.blocks, PostingBlock{
			TFs:      append(make([]float64, 0, 4), tf),
			N:        1,
			FirstDoc: doc,
			LastDoc:  doc,
			MaxTF:    tf,
			MinLen:   dl,
		})
	} else {
		b := &pl.blocks[n-1]
		b.Docs = binary.AppendUvarint(b.Docs, uint64(doc-b.LastDoc))
		b.TFs = append(b.TFs, tf)
		b.N++
		b.LastDoc = doc
		if tf > b.MaxTF {
			b.MaxTF = tf
		}
		if dl < b.MinLen {
			b.MinLen = dl
		}
	}
	if pl.total == 0 {
		pl.maxTF, pl.minTF, pl.minLen = tf, tf, dl
	} else {
		if tf > pl.maxTF {
			pl.maxTF = tf
		}
		if tf < pl.minTF {
			pl.minTF = tf
		}
		if dl < pl.minLen {
			pl.minLen = dl
		}
	}
	pl.live++
	pl.total++
	pl.last = doc
}

// export deep-copies the list into its externalized form.
func (pl *postingList) export(term string) TermPostings {
	out := TermPostings{
		Term:    term,
		Live:    pl.live,
		MaxTF:   pl.maxTF,
		MinLen:  pl.minLen,
		MinTF:   pl.minTF,
		LastDoc: pl.last,
		Blocks:  make([]PostingBlock, len(pl.blocks)),
	}
	for i, b := range pl.blocks {
		c := b
		c.Docs = append([]byte(nil), b.Docs...)
		c.TFs = append([]float64(nil), b.TFs...)
		out.Blocks[i] = c
	}
	return out
}

// cursor walks one posting list in doc-id order, skipping tombstoned
// documents. After newCursor or any advance, either done is true or
// (doc, tf) is a live posting.
type cursor struct {
	ix   *Index
	pl   *postingList
	bi   int // current block index
	i    int // posting index within the block
	off  int // byte offset into the block's gap stream
	doc  int
	tf   float64
	done bool
}

// newCursor positions a cursor on the list's first live posting.
func newCursor(ix *Index, pl *postingList) cursor {
	c := cursor{ix: ix, pl: pl, bi: -1, done: pl == nil || len(pl.blocks) == 0}
	if !c.done {
		c.nextBlock()
		c.skipDead()
	}
	return c
}

// nextBlock enters the next block (or exhausts the cursor).
func (c *cursor) nextBlock() {
	c.bi++
	if c.bi >= len(c.pl.blocks) {
		c.done = true
		return
	}
	b := &c.pl.blocks[c.bi]
	c.i, c.off = 0, 0
	c.doc, c.tf = b.FirstDoc, b.TFs[0]
}

// step advances one raw posting, tombstones included.
func (c *cursor) step() {
	b := &c.pl.blocks[c.bi]
	if c.i+1 >= b.N {
		c.nextBlock()
		return
	}
	gap, n := binary.Uvarint(b.Docs[c.off:])
	c.off += n
	c.i++
	c.doc += int(gap)
	c.tf = b.TFs[c.i]
}

// skipDead moves forward past tombstoned documents (docLen == 0 marks a
// removed slot; live documents that appear in any posting list always
// have positive weighted length).
func (c *cursor) skipDead() {
	for !c.done && c.ix.docLen[c.doc] == 0 {
		c.step()
	}
}

// next advances to the next live posting.
func (c *cursor) next() {
	if c.done {
		return
	}
	c.step()
	c.skipDead()
}

// seek advances to the first live posting with doc id >= d. Blocks
// wholly below d are skipped without decoding their gap streams. Seeking
// backwards is a no-op (the cursor never rewinds).
func (c *cursor) seek(d int) {
	if c.done || c.doc >= d {
		return
	}
	// Skip whole blocks by header range first.
	for c.pl.blocks[c.bi].LastDoc < d {
		c.nextBlock()
		if c.done {
			return
		}
	}
	for !c.done && c.doc < d {
		c.step()
	}
	c.skipDead()
}

// markDocs sets bit d of bits for every doc id the list holds,
// tombstones included; callers filter dead slots afterwards. Only the
// gap streams are read, never the TFs. A block whose id range spans
// exactly its posting count holds consecutive ids (they are strictly
// increasing), so it is filled as a bit range without decoding.
func (pl *postingList) markDocs(bits []uint64) {
	for bi := range pl.blocks {
		b := &pl.blocks[bi]
		if b.LastDoc-b.FirstDoc+1 == b.N {
			setBitRange(bits, b.FirstDoc, b.LastDoc+1)
			continue
		}
		d, docs, off := b.FirstDoc, b.Docs, 0
		bits[d>>6] |= 1 << (uint(d) & 63)
		for i := 1; i < b.N; i++ {
			gap, n := uint64(docs[off]), 1
			if gap >= 0x80 {
				gap, n = binary.Uvarint(docs[off:])
			}
			off += n
			d += int(gap)
			bits[d>>6] |= 1 << (uint(d) & 63)
		}
	}
}

// setBitRange sets bits [lo, hi) of a word bitset; lo < hi.
func setBitRange(bits []uint64, lo, hi int) {
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if first == last {
		bits[first] |= loMask & hiMask
		return
	}
	bits[first] |= loMask
	for w := first + 1; w < last; w++ {
		bits[w] = ^uint64(0)
	}
	bits[last] |= hiMask
}

// blockMaxTF and blockMinLen expose the current block's bound metadata.
func (c *cursor) blockMaxTF() float64  { return c.pl.blocks[c.bi].MaxTF }
func (c *cursor) blockMinLen() float64 { return c.pl.blocks[c.bi].MinLen }

// importPostings installs externally-restored posting lists, replacing
// whatever the index holds. Every list is structurally validated
// (strictly increasing doc ids within the index's slot space, block
// headers consistent with their payload, live count consistent with the
// index's tombstones) so a corrupt snapshot fails loudly instead of
// scoring garbage.
func (ix *Index) importPostings(lists []TermPostings) error {
	postings := make(map[string]*postingList, len(lists))
	for li := range lists {
		tp := &lists[li]
		if tp.Term == "" {
			return fmt.Errorf("ir: postings list %d has an empty term", li)
		}
		if _, dup := postings[tp.Term]; dup {
			return fmt.Errorf("ir: duplicate postings list for term %q", tp.Term)
		}
		pl := &postingList{
			blocks: tp.Blocks,
			live:   tp.Live,
			maxTF:  tp.MaxTF,
			minTF:  tp.MinTF,
			minLen: tp.MinLen,
			last:   tp.LastDoc,
		}
		prev := -1
		live, total := 0, 0
		for bi := range pl.blocks {
			b := &pl.blocks[bi]
			if b.N < 1 || b.N > blockSize || len(b.TFs) != b.N {
				return fmt.Errorf("ir: term %q block %d: bad posting count", tp.Term, bi)
			}
			doc, off := b.FirstDoc, 0
			for i := 0; i < b.N; i++ {
				if i > 0 {
					gap, n := binary.Uvarint(b.Docs[off:])
					if n <= 0 || gap == 0 || gap > uint64(len(ix.names)) {
						return fmt.Errorf("ir: term %q block %d: bad doc gap", tp.Term, bi)
					}
					off += n
					doc += int(gap)
				}
				if doc <= prev || doc >= len(ix.names) {
					return fmt.Errorf("ir: term %q block %d: doc id %d out of order or range", tp.Term, bi, doc)
				}
				tf := b.TFs[i]
				if !(tf > 0) || math.IsInf(tf, 0) {
					return fmt.Errorf("ir: term %q block %d: tf %v outside (0, +Inf)", tp.Term, bi, tf)
				}
				if dl := ix.docLen[doc]; dl > 0 {
					live++
					// Bound-safety: the block and list metadata must
					// dominate every LIVE posting (stale values backing
					// only tombstones are allowed — that is the safe
					// direction), or the pruned scorer would derive
					// understated upper bounds and silently drop results.
					if tf > b.MaxTF || tf > tp.MaxTF || tf < tp.MinTF {
						return fmt.Errorf("ir: term %q block %d: live tf %v outside metadata bounds [%v, min(%v,%v)]", tp.Term, bi, tf, tp.MinTF, b.MaxTF, tp.MaxTF)
					}
					if dl < b.MinLen || dl < tp.MinLen {
						return fmt.Errorf("ir: term %q block %d: live doc length %v below metadata minimum", tp.Term, bi, dl)
					}
				}
				prev = doc
				total++
			}
			if off != len(b.Docs) {
				return fmt.Errorf("ir: term %q block %d: trailing gap bytes", tp.Term, bi)
			}
			if doc != b.LastDoc {
				return fmt.Errorf("ir: term %q block %d: LastDoc %d does not match decoded %d", tp.Term, bi, b.LastDoc, doc)
			}
		}
		if live != tp.Live {
			return fmt.Errorf("ir: term %q: live count %d does not match tombstones (%d live)", tp.Term, tp.Live, live)
		}
		if live == 0 {
			return fmt.Errorf("ir: term %q: no live postings (dead lists are dropped, not persisted)", tp.Term)
		}
		if prev != tp.LastDoc {
			return fmt.Errorf("ir: term %q: LastDoc %d does not match decoded %d", tp.Term, tp.LastDoc, prev)
		}
		pl.total = total
		postings[tp.Term] = pl
	}
	ix.postings = postings
	return nil
}

// importPostingsTrusted installs posting lists with shape-only
// validation: block headers must be internally consistent (posting
// counts, TF slice lengths, live-vs-total sanity), but gap streams are
// NOT decoded and per-posting doc ids and TFs are NOT checked against
// the index. That makes restore O(terms + blocks) instead of
// O(postings) — the point of serving a memory-mapped snapshot whose
// content is already covered by the snapshot layer's checksums. The
// installed block slices may alias mapped bytes; mutation via add
// appends, which reallocates (the slices arrive with len == cap), so
// the mapping itself is never written through.
func (ix *Index) importPostingsTrusted(lists []TermPostings) error {
	postings := make(map[string]*postingList, len(lists))
	for li := range lists {
		tp := &lists[li]
		if tp.Term == "" {
			return fmt.Errorf("ir: postings list %d has an empty term", li)
		}
		if _, dup := postings[tp.Term]; dup {
			return fmt.Errorf("ir: duplicate postings list for term %q", tp.Term)
		}
		if tp.Live < 1 {
			return fmt.Errorf("ir: term %q: no live postings (dead lists are dropped, not persisted)", tp.Term)
		}
		total := 0
		for bi := range tp.Blocks {
			b := &tp.Blocks[bi]
			if b.N < 1 || b.N > blockSize || len(b.TFs) != b.N {
				return fmt.Errorf("ir: term %q block %d: bad posting count", tp.Term, bi)
			}
			if b.FirstDoc < 0 || b.LastDoc < b.FirstDoc || b.LastDoc >= len(ix.names) {
				return fmt.Errorf("ir: term %q block %d: doc range [%d, %d] invalid for %d slots", tp.Term, bi, b.FirstDoc, b.LastDoc, len(ix.names))
			}
			total += b.N
		}
		if total < tp.Live {
			return fmt.Errorf("ir: term %q: live count %d exceeds %d postings", tp.Term, tp.Live, total)
		}
		postings[tp.Term] = &postingList{
			blocks: tp.Blocks,
			live:   tp.Live,
			total:  total,
			maxTF:  tp.MaxTF,
			minTF:  tp.MinTF,
			minLen: tp.MinLen,
			last:   tp.LastDoc,
		}
	}
	ix.postings = postings
	return nil
}
