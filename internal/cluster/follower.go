package cluster

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"qunits/internal/relational"
	"qunits/internal/search"
	"qunits/internal/snapshot"
)

// Follower converges an engine on a primary's state by replaying the
// primary's mutation WAL through the same Engine methods the primary
// ran. Because every operation — including compaction — is logged in
// its apply order and each is deterministic, a follower at applied
// sequence S holds exactly the engine state the primary held at S.
//
// The follower's engine must NOT have a mutation log installed:
// replayed operations are already logged, and re-logging them would
// fork the stream.
//
// Replay is idempotent by sequence number, not by operation — feedback
// is a multiplicative update, so applying a record twice would corrupt
// utilities. A record with Seq <= AppliedSeq is skipped; a record with
// Seq > AppliedSeq+1 is a hole (snapshot newer than the log, wrong log
// file) and is an error.
type Follower struct {
	engine *search.Engine
	reader *WALReader
	// applied is atomic so stats handlers can report the position while
	// a catch-up loop advances it; CatchUp itself must not be called
	// concurrently with itself.
	applied atomic.Uint64
}

// NewFollower returns a follower replaying reader into engine. applied
// is the engine state's log position: 0 for an engine built from
// scratch, or the sequence from a bootstrap snapshot's sidecar.
func NewFollower(engine *search.Engine, reader *WALReader, applied uint64) *Follower {
	f := &Follower{engine: engine, reader: reader}
	f.applied.Store(applied)
	return f
}

// AppliedSeq reports the last applied sequence number.
func (f *Follower) AppliedSeq() uint64 { return f.applied.Load() }

// CatchUp replays every complete record currently in the log and
// returns how many it applied. A torn tail simply ends the pass — the
// next CatchUp picks it up once the primary's append completes.
func (f *Follower) CatchUp() (int, error) {
	recs, err := f.reader.ReadAvailable()
	if err != nil {
		return 0, err
	}
	applied := 0
	for _, rec := range recs {
		pos := f.applied.Load()
		if rec.Seq <= pos {
			continue // duplicate delivery (e.g. reader restarted at 0)
		}
		if rec.Seq != pos+1 {
			return applied, fmt.Errorf("cluster: wal gap: record %d follows applied %d", rec.Seq, pos)
		}
		if err := f.apply(rec); err != nil {
			return applied, fmt.Errorf("cluster: applying wal record %d (%s): %w", rec.Seq, rec.Op, err)
		}
		f.applied.Store(rec.Seq)
		applied++
	}
	return applied, nil
}

// apply replays one record through the engine's public mutation
// methods. Already-exists on add and not-found on remove are tolerated
// as a safety net (the state the record wanted is the state we have);
// every other failure is real.
func (f *Follower) apply(rec Record) error {
	switch rec.Op {
	case OpAdd:
		def := f.engine.Catalog().Definition(rec.Def)
		if def == nil {
			return fmt.Errorf("unknown definition %q", rec.Def)
		}
		inst, err := f.engine.Catalog().Instantiate(def, rec.Params)
		if err != nil {
			return err
		}
		err = f.engine.AddInstance(inst)
		var exists *search.InstanceExistsError
		if err != nil && !errors.As(err, &exists) {
			return err
		}
		return nil
	case OpRemove:
		err := f.engine.RemoveInstance(rec.ID)
		var missing *search.InstanceNotFoundError
		if err != nil && !errors.As(err, &missing) {
			return err
		}
		return nil
	case OpFeedback:
		_, err := f.engine.ApplyFeedback(rec.ID, rec.Positive, search.Feedback{Rate: rec.Rate})
		return err
	case OpCompact:
		_, err := f.engine.Compact()
		return err
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}

// SaveBootstrap writes the engine's state as a QSNP snapshot at path
// with the WAL position in a "<path>.seq" sidecar. The position is
// captured while the snapshot's own locks are held (DumpStateWith), so
// the pair is atomic: a follower restoring from it resumes the log at
// exactly the first record the snapshot does not contain. seq is
// typically (*WAL).LastSeq on a primary or (*Follower).AppliedSeq on a
// follower checkpointing itself; nil records position 0.
//
// Both files are fsynced and then published by rename, so a crash
// mid-save leaves any previous bootstrap intact.
func SaveBootstrap(path string, engine *search.Engine, seq func() uint64) error {
	var pos uint64
	capture := func() {}
	if seq != nil {
		capture = func() { pos = seq() }
	}
	st, err := engine.DumpStateWith(capture)
	if err != nil {
		return fmt.Errorf("cluster: dumping engine state: %w", err)
	}
	tmp := path + ".tmp"
	if err := writeSynced(tmp, func(f *os.File) error {
		return snapshot.SaveState(f, engine.Catalog().DB(), st)
	}); err != nil {
		return fmt.Errorf("cluster: writing bootstrap %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: publishing bootstrap %s: %w", path, err)
	}
	seqTmp := path + ".seq.tmp"
	if err := writeSynced(seqTmp, func(f *os.File) error {
		_, err := f.WriteString(strconv.FormatUint(pos, 10) + "\n")
		return err
	}); err != nil {
		return fmt.Errorf("cluster: writing bootstrap sidecar %s: %w", seqTmp, err)
	}
	if err := os.Rename(seqTmp, path+".seq"); err != nil {
		os.Remove(seqTmp)
		return fmt.Errorf("cluster: publishing bootstrap sidecar %s.seq: %w", path, err)
	}
	return nil
}

// writeSynced creates path, fills it with write, then fsyncs and
// closes it, removing it on any failure. The fsync comes before the
// caller's rename because a journaled filesystem can make the rename
// durable before the content, leaving a torn file at the final path.
func writeSynced(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// LoadBootstrap restores an engine from a bootstrap snapshot and
// returns it with the log position from the sidecar. A missing sidecar
// means the snapshot predates WAL shipping (or was written by plain
// snapshot tooling) and reads as position 0. That is only correct for
// an empty log: paired with a non-empty WAL, a follower replays the
// whole log over a snapshot that already contains some of it, no error
// is raised, and replayed feedback compounds on the utilities it
// already shifted.
func LoadBootstrap(path string, db *relational.Database) (*search.Engine, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: opening bootstrap %s: %w", path, err)
	}
	defer f.Close()
	engine, err := snapshot.LoadEngine(f, db)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: loading bootstrap %s: %w", path, err)
	}
	pos, err := bootstrapSeq(path)
	if err != nil {
		return nil, 0, err
	}
	return engine, pos, nil
}

// LoadBootstrapMapped is LoadBootstrap serving posting blocks straight
// out of a memory mapping of the snapshot file when the platform and
// snapshot version allow it (see snapshot.LoadEngineFile) — follower
// bootstrap then costs O(metadata), not O(corpus), and co-located
// followers of the same bootstrap share one page-cached copy. mapped
// reports whether posting blocks are served from the mapping (false =
// the snapshot was loaded by copy).
func LoadBootstrapMapped(path string, db *relational.Database) (*search.Engine, uint64, bool, error) {
	engine, mapped, err := snapshot.LoadEngineFile(path, db)
	if err != nil {
		return nil, 0, false, fmt.Errorf("cluster: loading bootstrap %s: %w", path, err)
	}
	pos, err := bootstrapSeq(path)
	if err != nil {
		return nil, 0, false, err
	}
	return engine, pos, mapped, nil
}

// bootstrapSeq reads the WAL position from the "<path>.seq" sidecar.
func bootstrapSeq(path string) (uint64, error) {
	raw, err := os.ReadFile(path + ".seq")
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("cluster: reading bootstrap sidecar %s.seq: %w", path, err)
	}
	pos, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cluster: parsing bootstrap sidecar %s.seq: %w", path, err)
	}
	return pos, nil
}
