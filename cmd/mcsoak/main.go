// Command mcsoak soaks a live mcserved: it replays a seeded,
// deterministic workload mix — singleton queries (auto and explicit
// methods, trace-sampled), batch queries, small and bulk fact appends
// (each one delta compile on the server), stats scrapes, and
// intentional bad-request probes — at a controlled target rate for a
// fixed duration, then holds the run to a declarative SLO.
//
// Correctness is checked against internal/oracle, not against the
// server's own code: a sampled fraction of answers is recorded with
// the generation each response reports, the driver keeps a ledger of
// every fact it appended keyed by the generation the append produced,
// and at end of run each sampled answer is recomputed by the oracle
// over the database as it stood at that generation — so appends
// landing mid-flight never cause a false divergence. The final
// /metrics scrape is additionally held to metric-consistency
// invariants (compiles == full + delta, the query-accounting
// partition, zero in-flight queries on an idle server, ...).
//
// Usage:
//
//	mcsoak -duration 60s -qps 200            # against localhost:8377
//	mcsoak -addr host:port -seed 7 -report soak-report.json
//	mcsoak -slo slo.json                     # custom ceilings (JSON SLOSpec)
//	mcsoak -allow-dirty                      # non-empty server: load only, no oracle
//	mcsoak -child-bin ./mcserved -child-args "-snapshot-every 500" -source-skew 1.3
//	                                         # own a child with extra flags, skew query sources Zipf-style
//
// The exit status is 0 iff the run passed: every latency ceiling
// held, zero oracle divergences, zero unexpected HTTP statuses, and
// every metric invariant intact (ceilings adjustable via -slo).
// Verification needs the server's whole fact history, so the target
// must be empty at start unless -allow-dirty skips the oracle.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"magiccounting/internal/harness"
	"magiccounting/internal/server"
	"magiccounting/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcsoak:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mcsoak", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8377", "mcserved address (host:port)")
	duration := fs.Duration("duration", 60*time.Second, "soak duration")
	qps := fs.Float64("qps", 200, "target operations per second")
	workers := fs.Int("workers", 16, "concurrent request workers")
	seed := fs.Int64("seed", 1, "workload seed; the same seed replays the same operation sequence")
	reportPath := fs.String("report", "", "write the JSON report here (empty = stdout summary only)")
	sloPath := fs.String("slo", "", "JSON SLOSpec overriding the default ceilings")
	verifyEvery := fs.Int("verify-every", 8, "oracle-check every Nth operation's answer (0 disables)")
	maxVerifyGens := fs.Int("max-verify-gens", 40, "bound on distinct generations verified (one oracle fixpoint each)")
	badFrac := fs.Float64("bad-frac", 0.03, "fraction of intentional bad-request probes")
	batchFrac := fs.Float64("batch-frac", 0.08, "fraction of batch queries")
	appendFrac := fs.Float64("append-frac", 0.10, "fraction of fact appends")
	statsFrac := fs.Float64("stats-frac", 0.02, "fraction of stats scrapes")
	traceFrac := fs.Float64("trace-frac", 0.05, "fraction of singleton queries requesting a trace")
	baseLayers := fs.Int("base-layers", 6, "seeded base DAG layers")
	baseWidth := fs.Int("base-width", 8, "seeded base DAG width")
	bulkEvery := fs.Int("bulk-every", 10, "every Nth append is bulk (adds over a quarter of the database); 0 disables")
	maxFacts := fs.Int("max-facts", 10000, "soft cap on database growth")
	allowDirty := fs.Bool("allow-dirty", false, "accept a non-empty server; disables oracle verification and ledger cross-checks")
	childBin := fs.String("child-bin", "", "mcserved binary to spawn and own (required for -kill-every; overrides -addr)")
	childDataDir := fs.String("child-data-dir", "", "data directory for the owned child (empty = a fresh temp dir)")
	childArgs := fs.String("child-args", "", "extra space-separated flags for the owned child (e.g. \"-snapshot-every 500\")")
	sourceSkew := fs.Float64("source-skew", 0, "Zipf exponent for query-source popularity (>1 concentrates traffic on few regions; <=1 uniform)")
	killEvery := fs.Duration("kill-every", 0, "SIGKILL and restart the owned child this often (0 disables; needs -child-bin)")
	minRecoveries := fs.Int("min-recoveries", 0, "fail unless at least this many kill/restart cycles completed")
	memSampleEvery := fs.Duration("mem-sample-every", time.Second, "period of the /v1/stats memory scrape (0 disables)")
	heapGrowthFrac := fs.Float64("heap-growth-frac", 0, "fail if the late-run heap watermark exceeds the mid-run one by this fraction (0 disables)")
	maxCompiledBytes := fs.Int64("max-compiled-bytes", 0, "fail if the resident compiled-artifact estimate ever exceeds this (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := harness.DefaultSLO()
	if *sloPath != "" {
		var err error
		if spec, err = harness.LoadSLO(*sloPath); err != nil {
			return err
		}
	}
	// Memory and fault-injection ceilings come from flags (they
	// describe this run's shape), layered over whichever latency spec
	// is in force.
	if *heapGrowthFrac > 0 {
		spec.MaxHeapGrowthFrac = *heapGrowthFrac
	}
	if *maxCompiledBytes > 0 {
		spec.MaxCompiledBytes = *maxCompiledBytes
	}
	if *minRecoveries > 0 {
		spec.MinRecoveries = *minRecoveries
	}

	if *killEvery > 0 && *childBin == "" {
		return fmt.Errorf("-kill-every needs -child-bin (mcsoak must own the process it kills)")
	}
	var child *childServer
	target := "http://" + *addr
	if *childBin != "" {
		dir := *childDataDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "mcsoak-child-*"); err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		child = &childServer{bin: *childBin, dataDir: dir, extraArgs: strings.Fields(*childArgs)}
		if err := child.start(); err != nil {
			return err
		}
		defer child.terminate()
		target = "http://" + child.addr
	}

	c := &client{base: target, http: &http.Client{Timeout: 60 * time.Second}}
	verify, err := preflight(c, *allowDirty)
	if err != nil {
		return err
	}

	mix := workload.NewMix(workload.MixConfig{
		Seed:       *seed,
		BaseLayers: *baseLayers, BaseWidth: *baseWidth,
		BadFrac: *badFrac, BatchFrac: *batchFrac, AppendFrac: *appendFrac, StatsFrac: *statsFrac,
		TraceFrac:  *traceFrac,
		SourceSkew: *sourceSkew,
		BulkEvery:  *bulkEvery,
		MaxFacts:   *maxFacts,
	})
	led := newLedger()

	// Seed the base instance. Its generation (1 on a fresh server)
	// anchors the ledger; every answer observed at generation g is
	// later verified against base + the deltas up to g.
	base := mix.Base()
	var seedResp server.FactsResponse
	status, _, err := c.do("POST", "/v1/facts", server.FactsRequest{L: base.L, E: base.E, R: base.R}, &seedResp)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("seed base instance: status %d, err %v", status, err)
	}
	if verify && seedResp.Generation != 1 {
		return fmt.Errorf("seed base instance: generation %d, want 1 (server not fresh?)", seedResp.Generation)
	}
	led.record(seedResp.Generation, base.L, base.E, base.R, seedResp.AddedL+seedResp.AddedE+seedResp.AddedR)

	fmt.Fprintf(stdout, "mcsoak: soaking %s for %s at %g qps (seed %d, %d workers, verify=%v, kill-every=%s)\n",
		strings.TrimPrefix(target, "http://"), *duration, *qps, *seed, *workers, verify, killEvery)
	d := newDriver(c, mix, led, *verifyEvery, verify)
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	started := time.Now()
	waitAux := d.runAux(ctx, started, child, *killEvery, *memSampleEvery)
	d.run(ctx, *qps, *workers)
	waitAux()
	elapsed := time.Since(started).Seconds()

	// The load has fully drained (every worker returned), so the final
	// scrapes see an idle server: in-flight must read zero and the
	// counter identities must hold exactly.
	rep := &harness.SoakReport{
		Seed:            *seed,
		DurationSeconds: elapsed,
		TargetQPS:       *qps,
		AchievedQPS:     float64(d.ops) / elapsed,
		Ops:             d.ops,
		Classes:         make(map[string]*harness.ClassStats),
	}
	for class, ms := range d.ms {
		rep.Classes[class] = harness.MakeClassStats(ms, d.statuses[class])
	}
	rep.UnexpectedStatuses = d.unexpected
	rep.Recoveries = d.recoveries
	rep.RecoveryFailures = d.recoveryFailures
	if len(d.memSamples) > 0 {
		rep.Memory = harness.MakeMemoryCheck(d.memSamples)
	}

	var finalStats server.Stats
	if status, _, err := c.do("GET", "/v1/stats", nil, &finalStats); err != nil || status != http.StatusOK {
		return fmt.Errorf("final stats scrape: status %d, err %v", status, err)
	}
	req, err := http.NewRequest("GET", c.baseURL()+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("final metrics scrape: %w", err)
	}
	metrics, err := harness.ParseMetrics(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	rep.InvariantViolations = harness.CheckInvariants(metrics)

	if verify {
		// Driver-level cross-checks: the server's view of its database
		// must match the ledger fact for fact, generation for generation.
		maxGen, facts := led.stats()
		if finalStats.Generation != maxGen {
			rep.InvariantViolations = append(rep.InvariantViolations,
				fmt.Sprintf("driver: server generation %d != ledger generation %d", finalStats.Generation, maxGen))
		}
		if got := finalStats.FactsL + finalStats.FactsE + finalStats.FactsR; got != facts {
			rep.InvariantViolations = append(rep.InvariantViolations,
				fmt.Sprintf("driver: server holds %d facts, ledger appended %d", got, facts))
		}
		rep.Oracle = verifyChecks(d.checks, led, *maxVerifyGens)
	}

	rep.Evaluate(spec)
	rep.Summary(stdout)
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mcsoak: report written to %s\n", *reportPath)
	}
	if !rep.Pass {
		return fmt.Errorf("soak failed: %d SLO violations", len(rep.SLOViolations))
	}
	return nil
}

// preflight waits for the server to answer and decides whether the
// run can verify answers: oracle verification needs the whole fact
// history, so a server that has already seen traffic can only be
// load-tested (-allow-dirty), not verified.
func preflight(c *client, allowDirty bool) (verify bool, err error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, err := c.do("GET", "/healthz", nil, nil)
		if err == nil && status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return false, fmt.Errorf("server at %s not answering /healthz: status %d, err %v", c.base, status, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	var st server.Stats
	status, _, err := c.do("GET", "/v1/stats", nil, &st)
	if err != nil || status != http.StatusOK {
		return false, fmt.Errorf("preflight stats: status %d, err %v", status, err)
	}
	if st.Generation != 0 || st.Queries != 0 {
		if !allowDirty {
			return false, fmt.Errorf("server already has state (generation %d, %d queries); start it fresh or pass -allow-dirty to soak without oracle verification",
				st.Generation, st.Queries)
		}
		return false, nil
	}
	return true, nil
}
