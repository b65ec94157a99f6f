package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"magiccounting/internal/core"
)

func mkRecord(gen uint64, n int) Record {
	rec := Record{Gen: gen}
	for i := 0; i < n; i++ {
		rec.L = append(rec.L, core.P(name(gen, i), name(gen, i+1)))
		rec.E = append(rec.E, core.P(name(gen, i), rname(gen, i)))
		rec.R = append(rec.R, core.P(rname(gen, i), rname(gen, i+1)))
	}
	return rec
}

func name(gen uint64, i int) string  { return "n" + string(rune('a'+int(gen)%26)) + itoa(i) }
func rname(gen uint64, i int) string { return "r" + string(rune('a'+int(gen)%26)) + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

func mustOpen(t *testing.T, dir string, opts Options) (*Store, *RecoveryInfo) {
	t.Helper()
	st, info, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st, info
}

func appendAll(t *testing.T, st *Store, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatalf("Append gen %d: %v", rec.Gen, err)
		}
	}
}

// TestWALRoundtrip: append, close, reopen, replay everything.
func TestWALRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, info := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	if info.Generation != 0 || info.ReplayedRecords != 0 {
		t.Fatalf("fresh dir recovered %+v", info)
	}
	recs := []Record{mkRecord(1, 3), mkRecord(2, 1), mkRecord(3, 5)}
	appendAll(t, st, recs...)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, info2 := mustOpen(t, dir, Options{})
	if info2.Generation != 3 || info2.ReplayedRecords != 3 {
		t.Fatalf("recovered gen %d, %d records; want 3, 3", info2.Generation, info2.ReplayedRecords)
	}
	wantFacts := 0
	for _, r := range recs {
		wantFacts += r.Facts()
	}
	if got := len(info2.TailL) + len(info2.TailE) + len(info2.TailR); got != wantFacts || len(info2.L)+len(info2.E)+len(info2.R) != 0 {
		t.Fatalf("recovered %d tail facts and %d snapshot facts, want %d and none", got, len(info2.L)+len(info2.E)+len(info2.R), wantFacts)
	}
	if info2.TailL[0] != recs[0].L[0] || info2.TailR[len(info2.TailR)-1] != recs[2].R[len(recs[2].R)-1] {
		t.Fatal("recovered facts out of order")
	}
}

// TestWALRotation: a tiny segment cap forces several segments; replay
// must walk all of them in order.
func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentBytes: 256})
	for g := uint64(1); g <= 20; g++ {
		appendAll(t, st, mkRecord(g, 2))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(paths))
	}
	_, info := mustOpen(t, dir, Options{})
	if info.Generation != 20 || info.ReplayedRecords != 20 {
		t.Fatalf("recovered gen %d, %d records; want 20, 20", info.Generation, info.ReplayedRecords)
	}
}

// TestTornFinalRecordTruncated: a record cut mid-write is dropped and
// the file truncated, and the log accepts new appends afterwards.
func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendAll(t, st, mkRecord(1, 2), mkRecord(2, 2), mkRecord(3, 2))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _, _ := listSegments(dir)
	fi, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[0], fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	st2, info := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	if info.Generation != 2 || info.ReplayedRecords != 2 {
		t.Fatalf("recovered gen %d, %d records; want 2, 2", info.Generation, info.ReplayedRecords)
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("expected TruncatedBytes > 0 for a torn tail")
	}
	// The log is clean again: gen 3 can be re-committed and survives.
	appendAll(t, st2, mkRecord(3, 4))
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, info3 := mustOpen(t, dir, Options{})
	if info3.Generation != 3 || info3.ReplayedRecords != 3 || info3.TruncatedBytes != 0 {
		t.Fatalf("post-repair recovery: %+v", info3)
	}
}

// TestCorruptCRCMidSegment: a checksum failure that is not the final
// record cuts replay at the last durable prefix and discards the
// unreachable suffix (and any later segments).
func TestCorruptCRCMidSegment(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 1 << 20})
	offsets := []int64{}
	for g := uint64(1); g <= 4; g++ {
		appendAll(t, st, mkRecord(g, 2))
		st.w.mu.Lock()
		offsets = append(offsets, st.w.size)
		st.w.mu.Unlock()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _, _ := listSegments(dir)
	// Flip one payload byte inside record 2 (between offsets[0] and
	// offsets[1], past its 8-byte frame header).
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[0]+recordHeaderLen+3] ^= 0xFF
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, info := mustOpen(t, dir, Options{})
	if info.Generation != 1 || info.ReplayedRecords != 1 {
		t.Fatalf("recovered gen %d, %d records; want 1, 1 (prefix before corruption)", info.Generation, info.ReplayedRecords)
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("expected the corrupt suffix to be counted as truncated")
	}
}

// TestCorruptionDropsLaterSegments: corruption in segment k makes
// every later segment unreachable (its records would open a
// generation gap), so recovery removes them.
func TestCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentBytes: 300})
	for g := uint64(1); g <= 12; g++ {
		appendAll(t, st, mkRecord(g, 2))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _, _ := listSegments(dir)
	if len(paths) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the first segment's last record
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, info := mustOpen(t, dir, Options{})
	if info.DroppedSegments != len(paths)-1 {
		t.Fatalf("dropped %d segments, want %d", info.DroppedSegments, len(paths)-1)
	}
	left, _, _ := listSegments(dir)
	if len(left) != 1 {
		t.Fatalf("%d segments remain, want 1", len(left))
	}
	if info.Generation >= 12 {
		t.Fatalf("generation %d should be below 12 after losing a suffix", info.Generation)
	}
}

// TestSnapshotRoundtripAndGC: snapshot + tail replay, the snapshot's
// artifact kept and the tail exposed so the two compile the recovered
// database, old segments and snapshots collected.
func TestSnapshotRoundtripAndGC(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendAll(t, st, mkRecord(1, 3), mkRecord(2, 3))

	var l, e, r []core.Pair
	for _, rec := range []Record{mkRecord(1, 3), mkRecord(2, 3)} {
		l = append(l, rec.L...)
		e = append(e, rec.E...)
		r = append(r, rec.R...)
	}
	comp := core.Compile(l, e, r)
	comp.Generation = 2
	floor, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(Snapshot{Gen: 2, L: l, E: e, R: r, Compiled: comp}, floor); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Snapshot-only recovery: artifact current, zero replay.
	_, info := mustOpen(t, dir, Options{})
	if !info.SnapshotLoaded || info.Generation != 2 || info.ReplayedRecords != 0 {
		t.Fatalf("snapshot-only recovery: %+v", info)
	}
	if art, err := info.Artifact(); err != nil || art == nil || art.Generation != 2 {
		t.Fatalf("snapshot artifact lost or stale: %v", err)
	}
	// The snapshot stores its artifact alone; its rows are the facts
	// acknowledged before the checkpoint.
	if len(info.L)+len(info.E)+len(info.R) != 0 {
		t.Fatalf("a snapshot with an artifact stored %d/%d/%d fact pairs too", len(info.L), len(info.E), len(info.R))
	}
	if sl, se, sr, err := info.SnapshotFacts(); err != nil || core.Compile(sl, se, sr).StructuralEqual(core.Compile(l, e, r)) != nil {
		t.Fatalf("snapshot facts %d/%d/%d (%v) are not the %d/%d/%d acknowledged", len(sl), len(se), len(sr), err, len(l), len(e), len(r))
	}
	if len(info.TailL)+len(info.TailE)+len(info.TailR) != 0 {
		t.Fatalf("snapshot-only recovery reports a tail: %+v", info)
	}

	// A tail past the snapshot: the artifact is the snapshot's, and
	// extended by the tail it compiles the recovered database.
	st2, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	tail := mkRecord(3, 2)
	appendAll(t, st2, tail)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, info2 := mustOpen(t, dir, Options{})
	if info2.Generation != 3 || info2.ReplayedRecords != 1 {
		t.Fatalf("snapshot+tail recovery: %+v", info2)
	}
	if !reflect.DeepEqual(info2.TailL, tail.L) || !reflect.DeepEqual(info2.TailE, tail.E) || !reflect.DeepEqual(info2.TailR, tail.R) {
		t.Fatalf("tail %v/%v/%v, want the replayed record %+v", info2.TailL, info2.TailE, info2.TailR, tail)
	}
	art, err := info2.Artifact()
	if err != nil || art == nil || art.Generation != 2 {
		t.Fatalf("snapshot artifact behind a tail lost or stale: %v", err)
	}
	acked := core.Compile(append(l[:len(l):len(l)], tail.L...), append(e[:len(e):len(e)], tail.E...), append(r[:len(r):len(r)], tail.R...))
	if err := art.Extend(info2.TailL, info2.TailE, info2.TailR).StructuralEqual(acked); err != nil {
		t.Fatalf("snapshot artifact plus tail does not compile the acknowledged facts: %v", err)
	}

	// GC: only segments >= floor and at most two snapshots remain.
	_, seqs, _ := listSegments(dir)
	for _, seq := range seqs {
		if seq < floor {
			t.Fatalf("segment %d below floor %d survived GC", seq, floor)
		}
	}
}

// bufferedSnapshotFile is the reference for the snapshot file format of
// the given version: the file a snapshot made when the whole payload
// was encoded into one buffer (the artifact through AppendBinary) and
// then framed. Version 2 leaves the facts out when there is an
// artifact; version 1 always wrote them.
func bufferedSnapshotFile(snap Snapshot, version byte) []byte {
	idx := make(map[string]uint64)
	var names []string
	rels := [][]core.Pair{snap.L, snap.E, snap.R}
	if version >= 2 && snap.Compiled != nil {
		rels = [][]core.Pair{nil, nil, nil}
	}
	for _, rel := range rels {
		for _, p := range rel {
			for _, s := range []string{p.From, p.To} {
				if _, ok := idx[s]; !ok {
					idx[s] = uint64(len(names))
					names = append(names, s)
				}
			}
		}
	}
	payload := binary.AppendUvarint(nil, snap.Gen)
	payload = binary.AppendUvarint(payload, uint64(len(names)))
	for _, s := range names {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	for _, rel := range rels {
		payload = binary.AppendUvarint(payload, uint64(len(rel)))
		for _, p := range rel {
			payload = binary.AppendUvarint(payload, idx[p.From])
			payload = binary.AppendUvarint(payload, idx[p.To])
		}
	}
	if snap.Compiled != nil {
		payload = snap.Compiled.AppendBinary(append(payload, 1))
	} else {
		payload = append(payload, 0)
	}
	frame := fileHeader(snapMagic, version)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(payload)))
	return append(frame, payload...)
}

// TestSnapshotFileStreamed: a snapshot streamed to disk is byte-identical
// to the buffered framing of the same snapshot, with and without an
// artifact, the artifact large enough to cross the stream's chunks and
// extended (so its pages are not the flat form it encodes to); and it
// loads back to the same facts and artifact.
func TestSnapshotFileStreamed(t *testing.T) {
	var l, e, r []core.Pair
	for g := uint64(1); g <= 400; g++ {
		rec := mkRecord(g, 20)
		l, e, r = append(l, rec.L...), append(e, rec.E...), append(r, rec.R...)
	}
	comp := core.Compile(l[:len(l)/2], e, r).Extend(l[len(l)/2:], nil, nil)
	comp.Generation = 400
	for _, snap := range []Snapshot{
		{Gen: 400, L: l, E: e, R: r, Compiled: comp},
		{Gen: 400, L: l, E: e, R: r},
		{Gen: 1},
	} {
		dir := t.TempDir()
		if err := writeSnapshotFile(dir, snap); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, snapshotName(snap.Gen))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := bufferedSnapshotFile(snap, snapVersion)
		if !bytes.Equal(got, want) {
			t.Fatalf("artifact=%v: streamed file (%d B) differs from the buffered framing (%d B)", snap.Compiled != nil, len(got), len(want))
		}
		loaded, err := loadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.decodeArtifact(); err != nil {
			t.Fatal(err)
		}
		if stored := len(snap.L); snap.Compiled != nil && len(loaded.L) != 0 || snap.Compiled == nil && len(loaded.L) != stored || (snap.Compiled != nil) != (loaded.Compiled != nil) {
			t.Fatalf("loaded %d L facts, artifact=%v", len(loaded.L), loaded.Compiled != nil)
		}
		if snap.Compiled != nil {
			if err := loaded.Compiled.StructuralEqual(snap.Compiled); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRotateCrashKeepsSealedSegments: a crash in the window between
// Rotate (which seals the active segment and names the GC floor) and
// WriteSnapshot (which would persist the state those segments encode)
// must lose nothing. The sealed segment is not covered by any
// snapshot, so recovery has to replay it — and neither recovery nor a
// later snapshot at a fresh floor may delete records that only the
// log holds.
func TestRotateCrashKeepsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendAll(t, st, mkRecord(1, 2), mkRecord(2, 2))
	floor, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// Writes land in the new active segment; the sealed one now holds
	// gens 1-2 and nothing else references them.
	appendAll(t, st, mkRecord(3, 2))
	// Crash: no WriteSnapshot, no Close. FsyncAlways means every
	// acknowledged append above is already on stable storage.

	paths, seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("expected 2 segments (sealed + active), got %d", len(paths))
	}
	if seqs[1] != floor {
		t.Fatalf("active segment seq %d, Rotate reported floor %d", seqs[1], floor)
	}

	st2, info := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	if info.SnapshotLoaded {
		t.Fatal("no snapshot was ever written")
	}
	if info.Generation != 3 || info.ReplayedRecords != 3 {
		t.Fatalf("recovered gen %d, %d records; want 3, 3", info.Generation, info.ReplayedRecords)
	}
	if info.ReplayedSegments != 2 || info.DroppedSegments != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("recovery touched sealed segments: %+v", info)
	}
	after, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(paths) {
		t.Fatalf("recovery changed segment count: %d -> %d", len(paths), len(after))
	}

	// The interrupted checkpoint retries from scratch: a fresh Rotate
	// names a fresh floor, and only then may the old segments go.
	appendAll(t, st2, mkRecord(4, 1))
	floor2, err := st2.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	var l, e, r []core.Pair
	for _, rec := range []Record{mkRecord(1, 2), mkRecord(2, 2), mkRecord(3, 2), mkRecord(4, 1)} {
		l, e, r = append(l, rec.L...), append(e, rec.E...), append(r, rec.R...)
	}
	if err := st2.WriteSnapshot(Snapshot{Gen: 4, L: l, E: e, R: r}, floor2); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, info2 := mustOpen(t, dir, Options{})
	if info2.Generation != 4 || info2.ReplayedRecords != 0 || !info2.SnapshotLoaded {
		t.Fatalf("post-checkpoint recovery: %+v", info2)
	}
	if got := len(info2.L) + len(info2.E) + len(info2.R); got != len(l)+len(e)+len(r) {
		t.Fatalf("post-checkpoint facts: %d, want %d", got, len(l)+len(e)+len(r))
	}
}

// TestSnapshotFallback: a corrupt newest snapshot falls back to the
// previous one plus a longer replay.
func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendAll(t, st, mkRecord(1, 2))
	floor, _ := st.Rotate()
	snap1 := Snapshot{Gen: 1, L: mkRecord(1, 2).L, E: mkRecord(1, 2).E, R: mkRecord(1, 2).R}
	if err := st.WriteSnapshot(snap1, floor); err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, mkRecord(2, 2))
	floor2, _ := st.Rotate()
	l2 := append(append([]core.Pair{}, snap1.L...), mkRecord(2, 2).L...)
	e2 := append(append([]core.Pair{}, snap1.E...), mkRecord(2, 2).E...)
	r2 := append(append([]core.Pair{}, snap1.R...), mkRecord(2, 2).R...)
	if err := st.WriteSnapshot(Snapshot{Gen: 2, L: l2, E: e2, R: r2}, floor2); err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, mkRecord(3, 1))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the gen-2 snapshot's payload.
	path := filepath.Join(dir, snapshotName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, info := mustOpen(t, dir, Options{})
	if info.SnapshotGeneration != 1 {
		t.Fatalf("fell back to snapshot gen %d, want 1", info.SnapshotGeneration)
	}
	if len(info.SkippedSnapshots) != 1 || !strings.Contains(info.SkippedSnapshots[0], "checksum") {
		t.Fatalf("SkippedSnapshots = %v", info.SkippedSnapshots)
	}
	// Replay covers the gap: gen 2 and 3 come from the log.
	if info.Generation != 3 || info.ReplayedRecords != 2 {
		t.Fatalf("fallback recovery: gen %d, %d records; want 3, 2", info.Generation, info.ReplayedRecords)
	}
}

// TestVersionMismatchRejected: a future-format segment or snapshot
// must fail Open with ErrIncompatibleVersion, not be misparsed.
func TestVersionMismatchRejected(t *testing.T) {
	for _, kind := range []string{"wal", "snap"} {
		dir := t.TempDir()
		st, _ := mustOpen(t, dir, Options{})
		appendAll(t, st, mkRecord(1, 1))
		floor, _ := st.Rotate()
		if err := st.WriteSnapshot(Snapshot{Gen: 1, L: mkRecord(1, 1).L}, floor); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		var path string
		if kind == "wal" {
			paths, _, _ := listSegments(dir)
			path = paths[0]
		} else {
			path = filepath.Join(dir, snapshotName(1))
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[5] = max(walVersion, snapVersion) + 1 // the version byte
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Open(dir, Options{}, nil)
		if !errors.Is(err, ErrIncompatibleVersion) {
			t.Fatalf("%s version bump: err = %v, want ErrIncompatibleVersion", kind, err)
		}
	}
}

// TestSnapshotFormatVersions pins the snapshot format bump in both
// directions. A snapshot with an artifact is written at version 2 as
// the artifact alone, so a reader of version 1 only — whose check was
// exact — refuses it with ErrIncompatibleVersion instead of loading an
// empty database beside the artifact. And this binary still loads a
// version 1 snapshot, facts and artifact both, and recovers from it.
func TestSnapshotFormatVersions(t *testing.T) {
	var l, e, r []core.Pair
	for g := uint64(1); g <= 3; g++ {
		rec := mkRecord(g, 4)
		l, e, r = append(l, rec.L...), append(e, rec.E...), append(r, rec.R...)
	}
	comp := core.Compile(l, e, r)
	comp.Generation = 3
	snap := Snapshot{Gen: 3, L: l, E: e, R: r, Compiled: comp}

	dir := t.TempDir()
	if err := writeSnapshotFile(dir, snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(3))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[5] != 2 {
		t.Fatalf("a snapshot with an artifact is written at version %d, want 2", data[5])
	}
	if _, err := checkHeader(data, snapMagic, 1, 1, path); !errors.Is(err, ErrIncompatibleVersion) {
		t.Fatalf("a version 1 reader on a new snapshot: %v, want ErrIncompatibleVersion", err)
	}

	for _, old := range []Snapshot{snap, {Gen: 3, L: l, E: e, R: r}} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName(3)), bufferedSnapshotFile(old, 1), 0o644); err != nil {
			t.Fatal(err)
		}
		_, info := mustOpen(t, dir, Options{})
		if !info.SnapshotLoaded || info.Generation != 3 || !reflect.DeepEqual(info.L, l) || !reflect.DeepEqual(info.E, e) || !reflect.DeepEqual(info.R, r) {
			t.Fatalf("version 1 snapshot (artifact=%v): loaded=%v gen %d, %d/%d/%d facts", old.Compiled != nil, info.SnapshotLoaded, info.Generation, len(info.L), len(info.E), len(info.R))
		}
		art, err := info.Artifact()
		if err != nil || (art != nil) != (old.Compiled != nil) {
			t.Fatalf("version 1 snapshot artifact: %v, %v", art != nil, err)
		}
		if art != nil {
			if err := art.StructuralEqual(comp); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestClosedStore: appends after Close fail with ErrClosed.
func TestClosedStore(t *testing.T) {
	st, _ := mustOpen(t, t.TempDir(), Options{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(mkRecord(1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestIntervalFsync exercises the background sync loop: appends under
// the interval policy get synced by the ticker (observed via OnFsync)
// and survive a reopen.
func TestIntervalFsync(t *testing.T) {
	dir := t.TempDir()
	synced := make(chan time.Duration, 16)
	st, _ := mustOpen(t, dir, Options{
		Fsync:         FsyncInterval,
		FsyncInterval: 5 * time.Millisecond,
		OnFsync:       func(d time.Duration) { synced <- d },
	})
	appendAll(t, st, mkRecord(1, 2))
	select {
	case <-synced:
	case <-time.After(2 * time.Second):
		t.Fatal("interval policy never fsynced")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, info := mustOpen(t, dir, Options{})
	if info.Generation != 1 {
		t.Fatalf("recovered gen %d, want 1", info.Generation)
	}
}

// TestFsyncFailureLatches: a failed fsync leaves its record in the log
// unacknowledged, so the wal must refuse everything after it — a second
// record under the same generation would make recovery replay the
// unacknowledged one and drop the acknowledged one. Under both syncing
// policies the failure latches, nothing more is written, and a reopen
// recovers a gapless history: the acknowledged records plus, at most,
// the whole unacknowledged one.
func TestFsyncFailureLatches(t *testing.T) {
	failing := errors.New("injected fsync failure")
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
			acked := []Record{mkRecord(1, 2), mkRecord(2, 3)}
			appendAll(t, st, acked...)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// The seam is set only while no interval-sync goroutine runs.
			fsyncFile = func(*os.File) error { return failing }
			defer func() { fsyncFile = (*os.File).Sync }()
			tried := make(chan struct{}, 1)
			st, _ = mustOpen(t, dir, Options{Fsync: policy, FsyncInterval: time.Millisecond, OnFsync: func(time.Duration) {
				select {
				case tried <- struct{}{}:
				default:
				}
			}})
			lost := mkRecord(3, 4)
			err := st.Append(lost)
			if policy == FsyncAlways {
				if !errors.Is(err, failing) {
					t.Fatalf("append over a failing fsync: %v", err)
				}
			} else {
				// The interval policy acknowledges before syncing; the
				// ticker's failed fsync is what latches.
				if err != nil {
					t.Fatalf("interval append: %v", err)
				}
				select {
				case <-tried:
				case <-time.After(2 * time.Second):
					t.Fatal("interval policy never fsynced")
				}
			}
			paths, _, _ := listSegments(dir)
			before, _ := os.Stat(paths[len(paths)-1])
			reused := mkRecord(3, 1) // what the service would log next: the generation it never published
			for _, op := range []struct {
				name string
				err  error
			}{{"append", st.Append(reused)}, {"sync", st.Sync()}, {"rotate", func() error { _, err := st.Rotate(); return err }()}, {"close", st.Close()}} {
				if op.err == nil || !strings.Contains(op.err.Error(), "wal is failed") || !errors.Is(op.err, failing) {
					t.Errorf("%s after the failed fsync: %v, want the latched failure", op.name, op.err)
				}
			}
			after, _ := os.Stat(paths[len(paths)-1])
			if more, _, _ := listSegments(dir); len(more) != len(paths) || after.Size() != before.Size() {
				t.Errorf("the failed wal kept writing: %d → %d segments, active %d → %d bytes", len(paths), len(more), before.Size(), after.Size())
			}

			fsyncFile = (*os.File).Sync
			st, info := mustOpen(t, dir, Options{Fsync: FsyncAlways})
			want := acked
			if info.Generation == 3 {
				want = append(want, lost)
			}
			var wl, we, wr []core.Pair
			for _, r := range want {
				wl, we, wr = append(wl, r.L...), append(we, r.E...), append(wr, r.R...)
			}
			if info.Generation != uint64(len(want)) || info.ReplayedRecords != len(want) || info.TruncatedBytes != 0 ||
				!reflect.DeepEqual(info.TailL, wl) || !reflect.DeepEqual(info.TailE, we) || !reflect.DeepEqual(info.TailR, wr) {
				t.Fatalf("recovered gen %d from %d records (%d bytes cut) with %d/%d/%d facts, want the %d acknowledged records and at most the whole unacknowledged one",
					info.Generation, info.ReplayedRecords, info.TruncatedBytes, len(info.TailL), len(info.TailE), len(info.TailR), len(acked))
			}
			appendAll(t, st, mkRecord(info.Generation+1, 1))
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, again := mustOpen(t, dir, Options{}); again.Generation != info.Generation+1 || again.TruncatedBytes != 0 {
				t.Fatalf("after the restart's append: gen %d, %d bytes cut; want gen %d, none", again.Generation, again.TruncatedBytes, info.Generation+1)
			}
		})
	}
}
