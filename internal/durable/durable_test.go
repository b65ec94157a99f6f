package durable

import (
	"errors"
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
	if got := len(info2.L) + len(info2.E) + len(info2.R); got != wantFacts {
		t.Fatalf("recovered %d facts, want %d", got, wantFacts)
	}
	if info2.L[0] != recs[0].L[0] || info2.R[len(info2.R)-1] != recs[2].R[len(recs[2].R)-1] {
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

// TestSnapshotRoundtripAndGC: snapshot + tail replay, artifact
// preserved only when current, old segments and snapshots collected.
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
	if info.Compiled == nil || info.Compiled.Generation != 2 {
		t.Fatal("snapshot artifact lost or stale")
	}
	if len(info.L) != len(l) || len(info.E) != len(e) || len(info.R) != len(r) {
		t.Fatalf("snapshot facts: %d/%d/%d, want %d/%d/%d", len(info.L), len(info.E), len(info.R), len(l), len(e), len(r))
	}

	// Tail past the snapshot invalidates the artifact.
	st2, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendAll(t, st2, mkRecord(3, 2))
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, info2 := mustOpen(t, dir, Options{})
	if info2.Generation != 3 || info2.ReplayedRecords != 1 {
		t.Fatalf("snapshot+tail recovery: %+v", info2)
	}
	if info2.Compiled != nil {
		t.Fatal("stale artifact must be dropped when a tail was replayed")
	}

	// GC: only segments >= floor and at most two snapshots remain.
	_, seqs, _ := listSegments(dir)
	for _, seq := range seqs {
		if seq < floor {
			t.Fatalf("segment %d below floor %d survived GC", seq, floor)
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
	l, e, r := info.L, info.E, info.R
	rec4 := mkRecord(4, 1)
	l = append(append([]core.Pair{}, l...), rec4.L...)
	e = append(append([]core.Pair{}, e...), rec4.E...)
	r = append(append([]core.Pair{}, r...), rec4.R...)
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
		data[5] = formatVersion + 1 // the version byte
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Open(dir, Options{}, nil)
		if !errors.Is(err, ErrIncompatibleVersion) {
			t.Fatalf("%s version bump: err = %v, want ErrIncompatibleVersion", kind, err)
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
				!reflect.DeepEqual(info.L, wl) || !reflect.DeepEqual(info.E, we) || !reflect.DeepEqual(info.R, wr) {
				t.Fatalf("recovered gen %d from %d records (%d bytes cut) with %d/%d/%d facts, want the %d acknowledged records and at most the whole unacknowledged one",
					info.Generation, info.ReplayedRecords, info.TruncatedBytes, len(info.L), len(info.E), len(info.R), len(acked))
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
