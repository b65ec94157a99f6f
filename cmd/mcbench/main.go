// Command mcbench regenerates the paper's evaluation artifacts: one
// experiment per table and figure, printed as aligned text tables with
// measured tuple-retrieval costs next to the Θ formulas.
//
// Usage:
//
//	mcbench                       # run everything at default sizes
//	mcbench -experiment tab1      # a single table
//	mcbench -sizes 32,64,128      # a custom sweep
//	mcbench -o results.txt        # write to a file
//	mcbench -json                 # also write BENCH_<timestamp>.json
//	mcbench -traceguard           # tracing-overhead guard: disabled vs unsampled
//	mcbench -recovery             # crash-recovery probe: cold replay vs snapshot+tail
//	mcbench -appendmix            # append-heavy probe: full recompile vs delta compile
//
// The deterministic cost gates are tests beside the code they pin:
// TestExperimentsGolden (internal/harness) compares every cell these
// tables render with testdata/experiments.golden.json, and
// TestCostBudgets (internal/server) compares each serving path's
// allocs/op, bytes/op and retrievals/op with testdata/costs.golden.
// After an intended change,
//
//	go test ./internal/harness/ ./internal/server/ -run 'TestExperimentsGolden|TestCostBudgets' -update
//
// rewrites both files, and their diff states the change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"magiccounting/internal/bench"
	"magiccounting/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment to run: all, tab1..tab5, fig1..fig3, fig3-dot")
	sizesFlag := fs.String("sizes", "", "comma-separated sweep sizes (default 16,32,64)")
	outPath := fs.String("o", "", "write results to this file instead of stdout")
	format := fs.String("format", "text", "output format: text or json")
	jsonOut := fs.Bool("json", false, "also write BENCH_<timestamp>.json with per-experiment wall times")
	benchRounds := fs.Int("benchrounds", 3, "timing repetitions of the -traceguard, -recovery and -appendmix probes; the fastest round is recorded")
	traceGuard := fs.Bool("traceguard", false, "compare tracing-disabled vs enabled-but-unsampled hot paths; fail on slowdown beyond -trace-tolerance or any retrieval-count drift")
	traceTolerance := fs.Float64("trace-tolerance", 0.02, "allowed fractional slowdown of the unsampled path for -traceguard")
	recovery := fs.Bool("recovery", false, "probe crash recovery: cold WAL replay vs snapshot+tail over the same history; fail below -recovery-min-speedup")
	recoveryRecords := fs.Int("recovery-records", 20_000, "committed WAL records for the -recovery probe")
	recoveryMinSpeedup := fs.Float64("recovery-min-speedup", 5, "required cold/snapshot recovery speedup for -recovery (0 disables the gate)")
	appendmix := fs.Bool("appendmix", false, "probe append-heavy maintenance: full recompile vs delta compile per append over the same seeded mix; fail below -appendmix-min-speedup or on any oracle divergence")
	appendmixBase := fs.Int("appendmix-base", 4_000, "pre-loaded facts for the -appendmix probe")
	appendmixAppends := fs.Int("appendmix-appends", 400, "append steps for the -appendmix probe")
	appendmixMinSpeedup := fs.Float64("appendmix-min-speedup", 5, "required full/delta amortized-compile speedup for -appendmix (0 disables the gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes := harness.DefaultSizes
	if *sizesFlag != "" {
		sizes = nil
		for _, s := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad size %q", s)
			}
			sizes = append(sizes, n)
		}
	}
	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	// record writes bf as a BENCH record when -json asks for one.
	record := func(bf benchFile) error {
		if !*jsonOut {
			return nil
		}
		path, err := writeBenchJSON(".", bf)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
		return nil
	}

	switch {
	case *traceGuard:
		return runTraceGuard(*benchRounds, *traceTolerance, out)
	case *recovery:
		res, err := runRecoveryProbe(*recoveryRecords, *benchRounds, out)
		if err != nil {
			return err
		}
		if err := record(benchFile{Recovery: res}); err != nil {
			return err
		}
		if *recoveryMinSpeedup > 0 && res.Speedup < *recoveryMinSpeedup {
			return fmt.Errorf("recovery speedup %.2fx below the required %.2fx", res.Speedup, *recoveryMinSpeedup)
		}
		return nil
	case *appendmix:
		res, err := runAppendmixProbe(*appendmixBase, *appendmixAppends, *benchRounds, out)
		if err != nil {
			return err
		}
		if err := record(benchFile{Appendmix: res}); err != nil {
			return err
		}
		if *appendmixMinSpeedup > 0 && res.Speedup < *appendmixMinSpeedup {
			return fmt.Errorf("appendmix speedup %.2fx below the required %.2fx", res.Speedup, *appendmixMinSpeedup)
		}
		return nil
	case *experiment == "fig3-dot":
		return harness.WriteHierarchyDOT(out)
	}

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = []string{"tab1", "tab2", "tab3", "tab4", "tab5", "fig1", "fig2", "fig3"}
	}
	var tables []*harness.Table
	bf := benchFile{Sizes: sizes}
	for _, id := range ids {
		start := time.Now()
		t, err := harness.ByID(id, sizes)
		if err != nil {
			return err
		}
		bf.Experiments = append(bf.Experiments, benchExperiment{
			ID:     t.ID,
			Title:  t.Title,
			WallMS: float64(time.Since(start).Microseconds()) / 1000,
			Header: t.Header,
			Rows:   t.Rows,
			Notes:  t.Notes,
		})
		tables = append(tables, t)
	}
	if err := record(bf); err != nil {
		return err
	}
	switch *format {
	case "text":
		for _, t := range tables {
			t.Render(out)
		}
		return nil
	case "json":
		return harness.WriteJSON(out, tables)
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
}

// runTraceGuard runs the tracing-overhead guard: every instrumented
// solver path, tracing disabled vs enabled-but-unsampled. Any
// retrieval-count difference is an instrumentation bug (spans must
// never charge the meter); a disabled-vs-unsampled slowdown beyond
// tolerance means the "pays nothing when off" contract broke.
func runTraceGuard(rounds int, tolerance float64, out io.Writer) error {
	guards, err := bench.RunTraceGuard(rounds)
	if err != nil {
		return err
	}
	var violations []string
	for _, g := range guards {
		fmt.Fprintf(out, "traceguard: %-28s disabled %.1f ns/op, unsampled %.1f ns/op, retrievals %d/%d\n",
			g.Name, g.DisabledNsPerOp, g.UnsampledNsPerOp, g.RetrievalsDisabled, g.RetrievalsUnsampled)
		if g.RetrievalsDisabled != g.RetrievalsUnsampled {
			violations = append(violations, fmt.Sprintf("%s: retrievals drifted, %d disabled vs %d unsampled (instrumentation charged the meter)",
				g.Name, g.RetrievalsDisabled, g.RetrievalsUnsampled))
		}
		if g.DisabledNsPerOp > 0 && g.UnsampledNsPerOp > g.DisabledNsPerOp*(1+tolerance) {
			violations = append(violations, fmt.Sprintf("%s: unsampled %.1f ns/op vs disabled %.1f (>%.0f%% overhead)",
				g.Name, g.UnsampledNsPerOp, g.DisabledNsPerOp, tolerance*100))
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(out, "TRACE-OVERHEAD:", v)
		}
		return fmt.Errorf("%d trace-overhead violation(s)", len(violations))
	}
	fmt.Fprintln(out, "traceguard: OK")
	return nil
}

// benchExperiment is one experiment's machine-readable record: its
// rendered cells (method names and retrieval counts) plus the wall
// time the run took.
type benchExperiment struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	WallMS float64    `json:"wall_ms"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// benchFile is the BENCH_<timestamp>.json schema, the unit of the
// repo's machine-readable perf trajectory: an experiment sweep, or one
// probe's record.
type benchFile struct {
	Timestamp   string            `json:"timestamp"`
	Sizes       []int             `json:"sizes"`
	Experiments []benchExperiment `json:"experiments"`
	Recovery    *recoveryResult   `json:"recovery,omitempty"`
	Appendmix   *appendmixResult  `json:"appendmix,omitempty"`
}

// writeBenchJSON stamps bf with the current time, writes it into dir
// as BENCH_<timestamp>.json and returns the file's path.
func writeBenchJSON(dir string, bf benchFile) (string, error) {
	now := time.Now()
	bf.Timestamp = now.Format(time.RFC3339)
	path := fmt.Sprintf("%s/BENCH_%s.json", dir, now.Format("20060102T150405"))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
