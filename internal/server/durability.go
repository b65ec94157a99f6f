package server

import (
	"errors"
	"fmt"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
	"magiccounting/internal/obs"
)

// Open attaches a durable store at dir to an empty Service: the newest
// valid snapshot is loaded, the WAL tail replayed, the artifact built
// over the recovered facts, and every subsequent AppendFacts is
// write-ahead logged per the configured fsync policy. Must run before
// the service takes traffic (the hot path reads s.dur without a lock on
// that basis), so the first query finds the artifact ready. The whole
// recovery runs under a "recover" span (see RecoverySpan) whose
// "load-snapshot", "replay", "decode-artifact", "delta-compile" and
// "compile" children carry sizes and durations.
//
// A directory written by an incompatible format version fails with
// durable.ErrIncompatibleVersion rather than misparsing.
func (s *Service) Open(dir string) (*durable.RecoveryInfo, error) {
	if s.dur != nil {
		return nil, errors.New("server: durable store already open")
	}
	if s.current().Generation != 0 {
		return nil, errors.New("server: Open requires an empty service (facts already appended)")
	}
	opts := durable.Options{
		Fsync:         s.cfg.Fsync,
		FsyncInterval: s.cfg.FsyncInterval,
		SegmentBytes:  s.cfg.WALSegmentBytes,
		OnFsync:       func(d time.Duration) { s.fsyncHist.observe(d.Seconds()) },
	}
	tr := obs.New("recover", 0)
	st, info, err := durable.Open(dir, opts, tr)
	if err != nil {
		return nil, err
	}
	// The snapshot's artifact is one Compiled over the snapshot's facts —
	// the one-shard form. Adopted, it makes recovery skip the compile:
	// the WAL tail is applied to it with one Extend, as the appends that
	// wrote the tail were, whatever its size. Otherwise
	// — several shards, or no artifact — the artifact is compiled here,
	// once, from the snapshot's facts (read back from its artifact when
	// that is all it stores) and the tail. An empty directory recovers
	// nothing, and New's empty artifact stands.
	art := s.current()
	if info.Generation > 0 {
		var snapArt *core.Compiled
		if s.cfg.Shards <= 1 && info.SnapshotLoaded {
			da := tr.Start("decode-artifact", 0)
			snapArt, err = info.Artifact()
			tr.End(da, 0)
			if err != nil {
				st.Close()
				return nil, err
			}
		}
		if snapArt != nil {
			art = s.adoptSnapshot(snapArt, info, tr)
		} else {
			cs := tr.Start("compile", 0)
			l, e, r, err := info.SnapshotFacts()
			if err != nil {
				st.Close()
				return nil, err
			}
			l, e, r = append(l[:len(l):len(l)], info.TailL...), append(e[:len(e):len(e)], info.TailE...), append(r[:len(r):len(r)], info.TailR...)
			art = core.CompileSharded(l, e, r, core.ShardOpts{Shards: s.cfg.Shards})
			cs.Set("shards", int64(art.NumShards()))
			tr.End(cs, 0)
			s.compiles.Add(1)
			s.fullCompiles.Add(1)
		}
		art.Generation = info.Generation
	}
	s.mu.Lock()
	s.dur = st
	s.art = art
	s.mu.Unlock()
	s.recoveryReplayed.Store(int64(info.ReplayedRecords))
	s.recoverSpan = tr.Finish(0)
	return info, nil
}

// adoptSnapshot extends the snapshot's artifact by the replayed WAL
// tail under a "delta-compile" span, accounted like an append's roll
// (one delta compile), and wraps it as the one-shard artifact.
func (s *Service) adoptSnapshot(snapArt *core.Compiled, info *durable.RecoveryInfo, tr *obs.Trace) *core.ShardedCompiled {
	tl, te, trr := info.TailL, info.TailE, info.TailR
	if len(tl)+len(te)+len(trr) == 0 {
		return core.SingleShard(snapArt)
	}
	sp := tr.Start("delta-compile", 0)
	snapArt = snapArt.Extend(tl, te, trr)
	sp.Set("added", int64(len(tl)+len(te)+len(trr)))
	tr.End(sp, 0)
	s.compiles.Add(1)
	s.deltaCompiles.Add(1)
	return core.SingleShard(snapArt)
}

// RecoverySpan returns the finished "recover" span tree from Open
// (nil on a memory-only service). Immutable once Open returns.
func (s *Service) RecoverySpan() *obs.Span { return s.recoverSpan }

// Checkpoint writes a snapshot of the current generation and
// garbage-collects the WAL behind it. Safe to call at any time on a
// durable service (concurrent checkpoints serialize; a generation
// already snapshotted is a no-op) and a no-op on a memory-only one.
//
// The ordering makes the snapshot self-consistently recoverable under
// concurrent appends: the WAL is rotated first, so every record of
// the soon-to-be-covered generations lives in a sealed segment below
// the returned floor; the database view is captured after, so its
// generation is at least that of any such record; and commits that
// land mid-checkpoint are in the new segment, above the floor, where
// recovery replays them on top of this snapshot.
func (s *Service) Checkpoint() error {
	if s.dur == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	if last, ok := s.dur.LastSnapshotGeneration(); ok && last == s.current().Generation {
		return nil // nothing committed since the last snapshot
	}

	floor, err := s.dur.Rotate()
	if err != nil {
		return err
	}
	art := s.current()
	// The snapshot format carries one Compiled over the whole database:
	// a one-shard artifact is exactly that and is snapshotted alone, its
	// rows being the facts, so recovery starts warm; several shards
	// snapshot their facts, read back from their rows, and recompile
	// them at recovery.
	snap := durable.Snapshot{Gen: art.Generation}
	if art.NumShards() == 1 {
		snap.Compiled = art.ShardArtifact(0)
	} else {
		snap.L, snap.E, snap.R = art.Facts()
	}
	start := time.Now()
	err = s.dur.WriteSnapshot(snap, floor)
	s.snapHist.observe(time.Since(start).Seconds())
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	s.snapshots.Add(1)
	s.sinceSnap.Store(0)
	return nil
}

// maybeSnapshot runs the automatic-snapshot policy after a commit of
// added facts: once SnapshotEvery facts have accumulated since the
// last snapshot, one background Checkpoint is kicked off (never more
// than one at a time — a slow snapshot must not pile up goroutines).
func (s *Service) maybeSnapshot(added int) {
	if s.dur == nil || s.cfg.SnapshotEvery <= 0 {
		return
	}
	if s.sinceSnap.Add(int64(added)) < int64(s.cfg.SnapshotEvery) {
		return
	}
	if !s.snapshotting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.snapshotting.Store(false)
		if s.closed.Load() {
			return // shutdown owns the final checkpoint
		}
		if err := s.Checkpoint(); err != nil {
			s.snapFailures.Add(1)
		}
	}()
}
