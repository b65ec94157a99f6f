package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"magiccounting/internal/core"
	"magiccounting/internal/obs"
)

// RecoveryInfo reports what Open reconstructed. The recovered database
// is the snapshot's facts (see SnapshotFacts) followed by the replayed
// WAL tail, and the two parts are kept apart: replay never copies the
// snapshot's facts.
type RecoveryInfo struct {
	// Generation is the recovered database generation: the snapshot's,
	// advanced by every replayed WAL record.
	Generation uint64
	// L, E, R are the facts the snapshot stores as pairs. They are
	// empty when no snapshot was loaded, and when the snapshot stores
	// its artifact alone, whose rows are then its facts.
	L, E, R []core.Pair
	// TailL, TailE, TailR are the replayed WAL tail in log order: the
	// facts committed after the snapshot (duplicate-free by the
	// write-side contract). The snapshot's artifact (see Artifact)
	// extended by them compiles the recovered database.
	TailL, TailE, TailR []core.Pair
	// SnapshotLoaded and SnapshotGeneration describe the snapshot used.
	SnapshotLoaded     bool
	SnapshotGeneration uint64
	// SkippedSnapshots lists corrupt snapshot files passed over for an
	// older valid one.
	SkippedSnapshots []string
	// ReplayedRecords and ReplayedSegments count the WAL tail replay.
	ReplayedRecords  int
	ReplayedSegments int
	// TruncatedBytes is the size of the invalid suffix cut from the
	// log (a torn final record, or everything from a mid-segment
	// checksum failure on). DroppedSegments counts whole segments
	// discarded because they followed that cut.
	TruncatedBytes  int64
	DroppedSegments int

	snap *Snapshot // the snapshot loaded, holding its still-encoded artifact
}

// Artifact returns the loaded snapshot's compiled artifact, for
// generation SnapshotGeneration — nil when no snapshot was loaded or it
// carries none. The artifact is decoded here, on first use, so a caller
// that compiles the recovered facts its own way (several shards) never
// pays for it. The bytes sit behind the snapshot frame's CRC, so a
// decode failure is an encoding incompatibility, reported as ErrCorrupt.
// Not safe for concurrent use.
func (ri *RecoveryInfo) Artifact() (*core.Compiled, error) {
	if ri.snap == nil {
		return nil, nil
	}
	if err := ri.snap.decodeArtifact(); err != nil {
		return nil, err
	}
	return ri.snap.Compiled, nil
}

// SnapshotFacts returns the loaded snapshot's facts: L, E and R when
// the snapshot stores them as pairs, else the rows of its artifact,
// decoded by Artifact and read back as fresh slices. All three are
// empty when no snapshot was loaded. Not safe for concurrent use.
func (ri *RecoveryInfo) SnapshotFacts() (l, e, r []core.Pair, err error) {
	if len(ri.L)+len(ri.E)+len(ri.R) > 0 {
		return ri.L, ri.E, ri.R, nil
	}
	c, err := ri.Artifact()
	if err != nil || c == nil {
		return nil, nil, nil, err
	}
	l, e, r = c.Facts()
	return l, e, r, nil
}

// Store is an open durable directory: the active WAL for appends plus
// the snapshot lifecycle. Obtain one from Open.
type Store struct {
	dir string
	w   *wal

	mu          sync.Mutex
	lastSnapGen uint64
	hasSnap     bool
}

// scannedRec is one valid record plus its start offset, so replay can
// cut the file exactly at the first invalid or out-of-order record.
type scannedRec struct {
	rec   Record
	start int64
}

// scanSegment parses one segment: every valid record in order, the
// offset after the last valid one, and the file size. It never fails
// on a torn or checksum-corrupt suffix — that is the caller's
// truncation decision — but does fail on version or magic mismatches.
func scanSegment(path string) (recs []scannedRec, goodLen, total int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	total = int64(len(data))
	if len(data) < headerLen {
		// Crashed during segment creation: nothing durable here.
		return nil, 0, total, nil
	}
	if _, err := checkHeader(data, walMagic, walVersion, walVersion, path); err != nil {
		return nil, 0, 0, err
	}
	off := int64(headerLen)
	for {
		if off+recordHeaderLen > total {
			break // torn or clean EOF
		}
		plen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if plen == 0 || plen > maxRecordBytes || off+recordHeaderLen+plen > total {
			break // torn length or impossible frame
		}
		payload := data[off+recordHeaderLen : off+recordHeaderLen+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			break // checksum failure: cut here
		}
		rec, derr := decodeRecordPayload(payload)
		if derr != nil {
			break // CRC-valid but unparseable: treat as corruption, cut
		}
		recs = append(recs, scannedRec{rec: rec, start: off})
		off += recordHeaderLen + plen
	}
	return recs, off, total, nil
}

// Open opens (or initializes) a durable directory: load the newest
// valid snapshot, replay the WAL tail in generation order, truncate
// any invalid suffix, and leave the log ready for appends. tr, when
// armed, receives "load-snapshot" and "replay" child spans so startup
// cost is traceable. The snapshot's artifact stays encoded until
// RecoveryInfo.Artifact asks for it.
func Open(dir string, opts Options, tr *obs.Trace) (*Store, *RecoveryInfo, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{}

	ls := tr.Start("load-snapshot", 0)
	snap, skipped, err := loadNewestSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	info.SkippedSnapshots = skipped
	if snap != nil {
		info.SnapshotLoaded = true
		info.SnapshotGeneration = snap.Gen
		info.Generation = snap.Gen
		info.L, info.E, info.R = snap.L, snap.E, snap.R
		info.snap = snap
		ls.Set("generation", int64(snap.Gen))
		ls.Set("facts", int64(len(snap.L)+len(snap.E)+len(snap.R)))
	}
	tr.End(ls, 0)

	rs := tr.Start("replay", 0)
	paths, seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	activeSeq, activeSize := uint64(0), int64(0)
	for i, path := range paths {
		recs, goodLen, total, err := scanSegment(path)
		if err != nil {
			return nil, nil, err
		}
		cut := goodLen
		stop := goodLen < total // invalid suffix present
		for _, sr := range recs {
			if sr.rec.Gen <= info.Generation {
				continue // already covered by the snapshot
			}
			if sr.rec.Gen != info.Generation+1 {
				// A generation gap means the log lost a committed
				// prefix record: nothing after this point is trustworthy.
				cut, stop = sr.start, true
				break
			}
			info.TailL = append(info.TailL, sr.rec.L...)
			info.TailE = append(info.TailE, sr.rec.E...)
			info.TailR = append(info.TailR, sr.rec.R...)
			info.Generation = sr.rec.Gen
			info.ReplayedRecords++
		}
		info.ReplayedSegments++
		activeSeq, activeSize = seqs[i], cut
		if stop {
			info.TruncatedBytes += total - cut
			if err := os.Truncate(path, cut); err != nil {
				return nil, nil, fmt.Errorf("durable: truncate %s: %w", path, err)
			}
			for _, late := range paths[i+1:] {
				fi, statErr := os.Stat(late)
				if statErr == nil {
					info.TruncatedBytes += fi.Size()
				}
				if err := os.Remove(late); err != nil {
					return nil, nil, fmt.Errorf("durable: drop segment %s: %w", late, err)
				}
				info.DroppedSegments++
			}
			syncDir(dir)
			break
		}
	}
	rs.Set("records", int64(info.ReplayedRecords))
	rs.Set("segments", int64(info.ReplayedSegments))
	rs.Set("truncated_bytes", info.TruncatedBytes)
	tr.End(rs, 0)

	w, err := openWAL(dir, opts, activeSeq, activeSize)
	if err != nil {
		return nil, nil, err
	}
	st := &Store{dir: dir, w: w}
	if info.SnapshotLoaded {
		st.hasSnap, st.lastSnapGen = true, info.SnapshotGeneration
	}
	return st, info, nil
}

// Append logs one committed fact batch. Under FsyncAlways it returns
// only after the record is on stable storage — the write-ahead half
// of the serving layer's commit.
func (st *Store) Append(rec Record) error {
	return st.w.append(encodeRecordPayload(rec))
}

// Sync forces the WAL to stable storage regardless of policy.
func (st *Store) Sync() error { return st.w.sync() }

// Rotate seals the active segment and returns the new segment's
// sequence number — the floor below which a subsequent WriteSnapshot
// may garbage-collect (every record already appended lives below it).
func (st *Store) Rotate() (uint64, error) { return st.w.rotate() }

// WriteSnapshot persists snap atomically, then garbage-collects. The
// two newest snapshots are retained (the previous one survives as a
// fallback if the newest is later found corrupt), and a sealed
// segment (seq < floorSeq, per the Rotate contract) is deleted only
// once every record in it is covered by the *oldest* retained
// snapshot — so the fallback snapshot always has the WAL tail it
// would need.
func (st *Store) WriteSnapshot(snap Snapshot, floorSeq uint64) error {
	if err := writeSnapshotFile(st.dir, snap); err != nil {
		return err
	}
	st.mu.Lock()
	st.hasSnap, st.lastSnapGen = true, snap.Gen
	st.mu.Unlock()

	// Trim snapshots to the newest two; the oldest survivor sets the
	// replay floor the retained WAL must cover.
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	var gens []uint64
	for _, e := range entries {
		if gen, ok := parseSnapshotGen(e.Name()); ok && gen < snap.Gen {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	coveredGen := snap.Gen
	if len(gens) > 0 {
		coveredGen = gens[0] // the retained fallback snapshot
		for _, g := range gens[1:] {
			if err := os.Remove(filepath.Join(st.dir, snapshotName(g))); err != nil {
				return err
			}
		}
	}

	paths, seqs, err := listSegments(st.dir)
	if err != nil {
		return err
	}
	for i, seq := range seqs {
		if seq >= floorSeq {
			continue
		}
		recs, _, _, serr := scanSegment(paths[i])
		if serr != nil {
			continue // leave anything odd for recovery to judge
		}
		if len(recs) == 0 || recs[len(recs)-1].rec.Gen <= coveredGen {
			if err := os.Remove(paths[i]); err != nil {
				return err
			}
		}
	}
	syncDir(st.dir)
	return nil
}

// LastSnapshotGeneration reports the newest persisted snapshot's
// generation (ok=false when none exists yet).
func (st *Store) LastSnapshotGeneration() (uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastSnapGen, st.hasSnap
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Close syncs and closes the WAL. Idempotent.
func (st *Store) Close() error { return st.w.close() }
