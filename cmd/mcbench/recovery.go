package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
)

// recoveryResult is the -recovery probe record, embedded into
// BENCH_*.json under "recovery": cold WAL replay versus
// snapshot-plus-tail recovery over the same committed state.
type recoveryResult struct {
	// Records is the number of committed WAL records; Facts the total
	// pairs across them.
	Records int `json:"records"`
	Facts   int `json:"facts"`
	// ColdMS is the recovery wall time with no snapshot (full replay);
	// ColdRecordsPerSec the implied replay throughput.
	ColdMS            float64 `json:"cold_ms"`
	ColdRecordsPerSec float64 `json:"cold_records_per_sec"`
	// SnapMS is the recovery wall time from a snapshot covering 99% of
	// the records plus a replayed 1% tail (TailRecords).
	SnapMS      float64 `json:"snap_ms"`
	TailRecords int     `json:"tail_records"`
	// Speedup is ColdMS / SnapMS — the factor the snapshot buys.
	Speedup float64 `json:"speedup"`
}

// probeRecord builds record i of the probe workload: a three-pair
// delta with record-unique constants, the shape of an incremental
// same-generation load, so replay cost is dominated by the same
// string decoding a production log would pay.
func probeRecord(gen uint64) durable.Record {
	a := fmt.Sprintf("n%d", gen)
	b := fmt.Sprintf("n%d", gen+1)
	return durable.Record{
		Gen: gen,
		L:   []core.Pair{{From: a, To: b}},
		E:   []core.Pair{{From: a, To: a}},
		R:   []core.Pair{{From: a, To: b}},
	}
}

// buildWAL appends records gens lo..hi to the store.
func buildWAL(st *durable.Store, lo, hi uint64) error {
	for g := lo; g <= hi; g++ {
		if err := st.Append(probeRecord(g)); err != nil {
			return err
		}
	}
	return nil
}

// timeOpen measures one recovery of dir and sanity-checks the
// recovered generation.
func timeOpen(dir string, wantGen uint64) (time.Duration, *durable.RecoveryInfo, error) {
	start := time.Now()
	st, info, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever}, nil)
	elapsed := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if err := st.Close(); err != nil {
		return 0, nil, err
	}
	if info.Generation != wantGen {
		return 0, nil, fmt.Errorf("recovery reached generation %d, want %d", info.Generation, wantGen)
	}
	return elapsed, info, nil
}

// runRecoveryProbe measures crash recovery two ways over the same
// n-record committed history: cold (WAL only, full replay) and warm
// (a snapshot covering 99% of the records, replaying the 1% tail).
// Each variant is recovered `rounds` times and the fastest round is
// kept, the same convention as the micro benchmarks.
func runRecoveryProbe(n, rounds int, out io.Writer) (*recoveryResult, error) {
	if n < 100 {
		n = 100
	}
	if rounds < 1 {
		rounds = 1
	}
	opts := durable.Options{Fsync: durable.FsyncNever}

	coldDir, err := os.MkdirTemp("", "mcbench-recovery-cold-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(coldDir)
	st, _, err := durable.Open(coldDir, opts, nil)
	if err != nil {
		return nil, err
	}
	if err := buildWAL(st, 1, uint64(n)); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	snapDir, err := os.MkdirTemp("", "mcbench-recovery-snap-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)
	st, _, err = durable.Open(snapDir, opts, nil)
	if err != nil {
		return nil, err
	}
	cut := uint64(n - n/100) // snapshot covers 99%
	if err := buildWAL(st, 1, cut); err != nil {
		return nil, err
	}
	floor, err := st.Rotate()
	if err != nil {
		return nil, err
	}
	// The snapshot carries what a one-shard Service checkpoint would:
	// the compiled artifact over the accumulated facts, which it stores
	// alone.
	var l, e, r []core.Pair
	for g := uint64(1); g <= cut; g++ {
		rec := probeRecord(g)
		l = append(l, rec.L...)
		e = append(e, rec.E...)
		r = append(r, rec.R...)
	}
	comp := core.Compile(l, e, r)
	comp.Generation = cut
	if err := st.WriteSnapshot(durable.Snapshot{Gen: cut, Compiled: comp}, floor); err != nil {
		return nil, err
	}
	if err := buildWAL(st, cut+1, uint64(n)); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	res := &recoveryResult{Records: n, Facts: 3 * n, TailRecords: n - int(cut)}
	cold, snap := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		d, _, err := timeOpen(coldDir, uint64(n))
		if err != nil {
			return nil, fmt.Errorf("cold recovery: %w", err)
		}
		if d < cold {
			cold = d
		}
		d, info, err := timeOpen(snapDir, uint64(n))
		if err != nil {
			return nil, fmt.Errorf("snapshot recovery: %w", err)
		}
		if !info.SnapshotLoaded || info.ReplayedRecords != res.TailRecords {
			return nil, fmt.Errorf("snapshot recovery loaded=%v replayed=%d, want tail of %d",
				info.SnapshotLoaded, info.ReplayedRecords, res.TailRecords)
		}
		if d < snap {
			snap = d
		}
	}
	res.ColdMS = float64(cold.Microseconds()) / 1000
	res.SnapMS = float64(snap.Microseconds()) / 1000
	if cold > 0 {
		res.ColdRecordsPerSec = float64(n) / cold.Seconds()
	}
	if snap > 0 {
		res.Speedup = float64(cold) / float64(snap)
	}

	fmt.Fprintf(out, "recovery probe: %d records (%d facts)\n", res.Records, res.Facts)
	fmt.Fprintf(out, "  cold replay:        %8.3fms  (%.0f records/s)\n", res.ColdMS, res.ColdRecordsPerSec)
	fmt.Fprintf(out, "  snapshot + %d tail: %8.3fms\n", res.TailRecords, res.SnapMS)
	fmt.Fprintf(out, "  speedup:            %8.2fx\n", res.Speedup)
	return res, nil
}
