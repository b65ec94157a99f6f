package server

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/oracle"
	"magiccounting/internal/workload"
)

// dedupPairs drops duplicate pairs preserving first-occurrence order,
// so a test batch built from a slice of it is guaranteed all-new and
// each append maps to exactly one generation bump and one WAL record.
func dedupPairs(ps []core.Pair) []core.Pair {
	seen := make(map[core.Pair]bool, len(ps))
	out := make([]core.Pair, 0, len(ps))
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// batchesFor splits a workload instance into n fact batches covering
// every relation, each non-empty in at least one relation.
func batchesFor(q core.Query, n int) []FactsRequest {
	l, e, r := dedupPairs(q.L), dedupPairs(q.E), dedupPairs(q.R)
	cut := func(ps []core.Pair, i int) []core.Pair {
		lo, hi := i*len(ps)/n, (i+1)*len(ps)/n
		return ps[lo:hi]
	}
	batches := make([]FactsRequest, 0, n)
	for i := 0; i < n; i++ {
		b := FactsRequest{L: cut(l, i), E: cut(e, i), R: cut(r, i)}
		if len(b.L)+len(b.E)+len(b.R) > 0 {
			batches = append(batches, b)
		}
	}
	return batches
}

// durableService opens a durable Service on dir with synchronous
// fsync (the crash-safety configuration under test).
func durableService(t *testing.T, dir string) *Service {
	t.Helper()
	svc := New(Config{Workers: 2})
	if _, err := svc.Open(dir); err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return svc
}

func mustAppend(t *testing.T, svc *Service, b FactsRequest) {
	t.Helper()
	if _, err := svc.AppendFacts(b); err != nil {
		t.Fatalf("AppendFacts: %v", err)
	}
}

// walFrames parses the record frame offsets of the single WAL segment
// in dir (the tests stay far below one segment's capacity), returning
// the segment path and each record's start offset.
func walFrames(t *testing.T, dir string) (string, []int64) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("glob wal segments: %v (found %d)", err, len(matches))
	}
	sort.Strings(matches)
	var path string
	var starts []int64
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatalf("read %s: %v", m, err)
		}
		off := int64(8)
		var local []int64
		for off+8 <= int64(len(data)) {
			plen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
			if plen == 0 || off+8+plen > int64(len(data)) {
				break
			}
			local = append(local, off)
			off += 8 + plen
		}
		if len(local) > 0 {
			path, starts = m, local
		}
	}
	if path == "" {
		t.Fatalf("no WAL records found in %s", dir)
	}
	return path, starts
}

// querySources picks a handful of constants to query: the instance
// source plus the first few distinct L endpoints.
func querySources(q core.Query) []string {
	srcs := []string{q.Source}
	seen := map[string]bool{q.Source: true}
	for _, p := range q.L {
		if !seen[p.From] {
			seen[p.From] = true
			srcs = append(srcs, p.From)
		}
		if len(srcs) == 4 {
			break
		}
	}
	return srcs
}

// TestCrashRecoveryMatrix drives the crash scenarios the durability
// design promises to survive: for each, a durable service takes
// batches of appends and is abandoned without Close (FsyncAlways
// means everything acknowledged is already on disk — the in-process
// equivalent of SIGKILL), the on-disk state is optionally damaged,
// and a fresh service recovers from the directory. The recovered
// service must then be indistinguishable — byte-identical answers and
// solver statistics — from an uninterrupted service fed the surviving
// batches, and its answers must match the independent oracle.
func TestCrashRecoveryMatrix(t *testing.T) {
	instances := []struct {
		kind workload.RegimeKind
		seed int64
	}{
		{workload.KindRegular, 11},
		{workload.KindMultiple, 22},
		{workload.KindRecurring, 33},
	}
	const nBatches = 6

	scenarios := []struct {
		name string
		// run applies the batches to a durable service on dir and
		// simulates the crash, returning how many batches survive.
		run func(t *testing.T, dir string, batches []FactsRequest) int
	}{
		{"no-snapshot", func(t *testing.T, dir string, batches []FactsRequest) int {
			svc := durableService(t, dir)
			for _, b := range batches {
				mustAppend(t, svc, b)
			}
			return len(batches)
		}},
		{"snapshot-only", func(t *testing.T, dir string, batches []FactsRequest) int {
			svc := durableService(t, dir)
			for _, b := range batches {
				mustAppend(t, svc, b)
			}
			if err := svc.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			return len(batches)
		}},
		{"snapshot-plus-tail", func(t *testing.T, dir string, batches []FactsRequest) int {
			svc := durableService(t, dir)
			half := len(batches) / 2
			for _, b := range batches[:half] {
				mustAppend(t, svc, b)
			}
			if err := svc.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			for _, b := range batches[half:] {
				mustAppend(t, svc, b)
			}
			return len(batches)
		}},
		{"rotate-no-snapshot", func(t *testing.T, dir string, batches []FactsRequest) int {
			// Crash inside the checkpoint window: the WAL was rotated
			// (sealing the old segment and naming a GC floor) but the
			// snapshot that would cover it was never written. The sealed
			// segment is then the only copy of the early batches — replay
			// must walk it and GC must not have touched it.
			svc := durableService(t, dir)
			half := len(batches) / 2
			for _, b := range batches[:half] {
				mustAppend(t, svc, b)
			}
			if err := svc.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			for _, b := range batches[half:] {
				mustAppend(t, svc, b)
			}
			if _, err := svc.dur.Rotate(); err != nil {
				t.Fatalf("Rotate: %v", err)
			}
			return len(batches)
		}},
		{"torn-final-record", func(t *testing.T, dir string, batches []FactsRequest) int {
			svc := durableService(t, dir)
			for _, b := range batches {
				mustAppend(t, svc, b)
			}
			path, _ := walFrames(t, dir)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// Shear a few bytes off the final record, as a crash mid
			// write would.
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
			return len(batches) - 1
		}},
		{"corrupt-crc-mid-segment", func(t *testing.T, dir string, batches []FactsRequest) int {
			svc := durableService(t, dir)
			for _, b := range batches {
				mustAppend(t, svc, b)
			}
			path, starts := walFrames(t, dir)
			k := len(starts) / 2
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[starts[k]+8] ^= 0xFF // first payload byte of record k
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return k
		}},
	}

	for _, inst := range instances {
		q := workload.RandomRegime(inst.kind, inst.seed, 2)
		batches := batchesFor(q, nBatches)
		if len(batches) < 3 {
			t.Fatalf("%v/%d: degenerate instance, only %d batches", inst.kind, inst.seed, len(batches))
		}
		for _, sc := range scenarios {
			t.Run(sc.name+"/"+inst.kind.String(), func(t *testing.T) {
				dir := t.TempDir()
				surviving := sc.run(t, dir, batches)

				recovered := durableService(t, dir)
				defer recovered.Close(context.Background())

				// Reference: an uninterrupted memory-only service fed
				// exactly the surviving batches.
				ref := New(Config{Workers: 2})
				for _, b := range batches[:surviving] {
					mustAppend(t, ref, b)
				}

				rst, fst := recovered.Stats(), ref.Stats()
				if rst.Generation != fst.Generation {
					t.Fatalf("recovered generation %d, reference %d", rst.Generation, fst.Generation)
				}
				if rst.FactsL != fst.FactsL || rst.FactsE != fst.FactsE || rst.FactsR != fst.FactsR {
					t.Fatalf("recovered facts L/E/R %d/%d/%d, reference %d/%d/%d",
						rst.FactsL, rst.FactsE, rst.FactsR, fst.FactsL, fst.FactsE, fst.FactsR)
				}
				// No replay artifact may duplicate a fact.
				rl, re, rr := recovered.current().Facts()
				for _, rel := range [][]core.Pair{rl, re, rr} {
					if len(dedupPairs(rel)) != len(rel) {
						t.Fatalf("recovered relation holds duplicates (%d pairs, %d distinct)",
							len(rel), len(dedupPairs(rel)))
					}
				}

				ol, oe, or := arcs(rl), arcs(re), arcs(rr)

				for _, src := range querySources(q) {
					got, err := recovered.Query(context.Background(), QueryRequest{Source: src})
					if err != nil {
						t.Fatalf("recovered query %q: %v", src, err)
					}
					want, err := ref.Query(context.Background(), QueryRequest{Source: src})
					if err != nil {
						t.Fatalf("reference query %q: %v", src, err)
					}
					if !reflect.DeepEqual(got.Answers, want.Answers) {
						t.Fatalf("query %q: recovered answers %v, reference %v", src, got.Answers, want.Answers)
					}
					if got.Stats != want.Stats {
						t.Fatalf("query %q: recovered stats %+v, reference %+v", src, got.Stats, want.Stats)
					}
					if got.Strategy != want.Strategy || got.Mode != want.Mode || got.Regime != want.Regime {
						t.Fatalf("query %q: recovered method %s/%s (%s), reference %s/%s (%s)",
							src, got.Strategy, got.Mode, got.Regime, want.Strategy, want.Mode, want.Regime)
					}
					exact := oracle.AnswersMemo(ol, oe, or, src)
					if strings.Join(got.Answers, ",") != strings.Join(exact, ",") {
						t.Fatalf("query %q: recovered answers %v, oracle %v", src, got.Answers, exact)
					}
				}
			})
		}
	}
}

// TestRecoveryInfoShape pins the RecoveryInfo bookkeeping and the
// recover span for the snapshot-plus-tail path — the snapshot's
// artifact extended by the tail, equal to a cold compile of the facts
// acknowledged before the crash and answering as the oracle does — and
// that a warm snapshot (no tail) hands its compiled artifact straight
// to the first query.
func TestRecoveryInfoShape(t *testing.T) {
	q := workload.Tree(2, 6)
	batches := batchesFor(q, 8)
	snap := len(batches) - 1 // a one-batch tail
	dir := t.TempDir()

	svc := durableService(t, dir)
	for _, b := range batches[:snap] {
		mustAppend(t, svc, b)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for _, b := range batches[snap:] {
		mustAppend(t, svc, b)
	}

	rec := New(Config{Workers: 2})
	info, err := rec.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer rec.Close(context.Background())
	if !info.SnapshotLoaded || info.SnapshotGeneration != uint64(snap) {
		t.Fatalf("snapshot: loaded=%v gen=%d, want loaded at gen %d", info.SnapshotLoaded, info.SnapshotGeneration, snap)
	}
	if info.ReplayedRecords != len(batches)-snap || info.Generation != uint64(len(batches)) {
		t.Fatalf("replay: %d records to gen %d, want %d to %d",
			info.ReplayedRecords, info.Generation, len(batches)-snap, len(batches))
	}
	tailFacts := 0
	for _, b := range batches[snap:] {
		tailFacts += len(b.L) + len(b.E) + len(b.R)
	}
	if got := len(info.TailL) + len(info.TailE) + len(info.TailR); got != tailFacts {
		t.Fatalf("tail holds %d facts, the replayed batches %d", got, tailFacts)
	}
	// The snapshot stores its artifact alone: no fact pairs beside it.
	if n := len(info.L) + len(info.E) + len(info.R); n != 0 {
		t.Fatalf("the one-shard snapshot stored %d fact pairs beside its artifact", n)
	}
	var al, ae, ar []core.Pair // acknowledged before the crash
	for _, b := range batches {
		al, ae, ar = append(al, b.L...), append(ae, b.E...), append(ar, b.R...)
	}
	if err := rec.current().ShardArtifact(0).StructuralEqual(core.Compile(al, ae, ar)); err != nil {
		t.Fatalf("recovered artifact diverges from a cold compile of the acknowledged facts: %v", err)
	}
	exact := oracle.Solver(arcs(al), arcs(ae), arcs(ar))
	for _, src := range querySources(q) {
		got, err := rec.Query(context.Background(), QueryRequest{Source: src})
		if err != nil {
			t.Fatalf("recovered query %q: %v", src, err)
		}
		if !reflect.DeepEqual(got.Answers, nonNilAnswers(exact(src))) {
			t.Fatalf("query %q: recovered answers %v, oracle %v", src, got.Answers, exact(src))
		}
	}
	span := rec.RecoverySpan()
	if span == nil || span.Name != "recover" {
		t.Fatalf("recover span missing: %+v", span)
	}
	for _, child := range []string{"load-snapshot", "replay", "decode-artifact", "delta-compile"} {
		if span.Find(child) == nil {
			t.Fatalf("recover span lacks a %s child: %+v", child, span)
		}
	}
	if span.Find("compile") != nil {
		t.Fatalf("recovery compiled cold despite the snapshot artifact: %+v", span)
	}
	if st := rec.Stats(); st.Compiles != 1 || st.DeltaCompile.DeltaCompiles != 1 || st.DeltaCompile.FullCompiles != 0 {
		t.Fatalf("recovery accounting: %d compiles, %+v; want one delta compile", st.Compiles, st.DeltaCompile)
	}
	if n := span.Find("replay").Attrs["records"]; n != int64(len(batches)-snap) {
		t.Fatalf("replay span records=%d, want %d", n, len(batches)-snap)
	}
	if st := rec.Stats(); !st.Durable || st.RecoveryReplayedRecords != int64(len(batches)-snap) {
		t.Fatalf("stats: durable=%v replayed=%d", st.Durable, st.RecoveryReplayedRecords)
	}

	// Close writes a final snapshot; the next open is warm: no replay,
	// and the snapshot's compiled artifact is adopted, not rebuilt.
	if err := rec.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	warm := New(Config{Workers: 2})
	winfo, err := warm.Open(dir)
	if err != nil {
		t.Fatalf("warm Open: %v", err)
	}
	if art, err := winfo.Artifact(); winfo.ReplayedRecords != 0 || art == nil || err != nil {
		t.Fatalf("warm open: %d replayed, artifact=%v (%v); want 0 with artifact", winfo.ReplayedRecords, art != nil, err)
	}
	if _, err := warm.Query(context.Background(), QueryRequest{Source: q.Source}); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	if n := warm.Stats().Compiles; n != 0 || warm.RecoverySpan().Find("compile") != nil || warm.RecoverySpan().Find("delta-compile") != nil {
		t.Fatalf("warm open compiled (%d) despite the snapshot artifact", n)
	}

	// A tail as large as the snapshot's whole database is extended onto
	// the decoded artifact all the same: one decode, one delta compile,
	// no cold compile.
	var big FactsRequest
	for i := 0; i < len(q.L); i++ {
		big = mergeFacts(big, chainFacts("big", i))
	}
	mustAppend(t, warm, big) // then abandoned: the tail is in the WAL only
	large := New(Config{Workers: 2})
	linfo, err := large.Open(dir)
	if err != nil {
		t.Fatalf("Open after a large tail: %v", err)
	}
	defer large.Close(context.Background())
	span = large.RecoverySpan()
	if st := large.Stats(); linfo.ReplayedRecords != 1 || st.DeltaCompile.FullCompiles != 0 || st.DeltaCompile.DeltaCompiles != 1 || st.Compiles != 1 ||
		span.Find("compile") != nil || span.Find("decode-artifact") == nil || span.Find("delta-compile") == nil {
		t.Fatalf("large tail: %d replayed, %+v, span %+v; want one decode and one delta compile", linfo.ReplayedRecords, st.DeltaCompile, span)
	}
	al, ae, ar = append(al, big.L...), append(ae, big.E...), append(ar, big.R...)
	if err := large.current().ShardArtifact(0).StructuralEqual(core.Compile(al, ae, ar)); err != nil {
		t.Fatalf("large tail: %v", err)
	}
}

// TestOpenRequiresEmptyService pins the lifecycle contract.
func TestOpenRequiresEmptyService(t *testing.T) {
	svc := New(Config{Workers: 1})
	mustAppend(t, svc, FactsRequest{L: []core.Pair{core.P("a", "b")}})
	if _, err := svc.Open(t.TempDir()); err == nil {
		t.Fatal("Open on a non-empty service succeeded")
	}
	dir := t.TempDir()
	d := durableService(t, dir)
	defer d.Close(context.Background())
	if _, err := d.Open(dir); err == nil {
		t.Fatal("second Open succeeded")
	}
}
