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
//	mcbench -json -micro          # include ns/op + allocs/op micro benchmarks
//	mcbench -compare BENCH_x.json # regression-check against a baseline
//	mcbench -traceguard           # tracing-overhead guard: disabled vs unsampled
//	mcbench -recovery             # crash-recovery probe: cold replay vs snapshot+tail
//	mcbench -appendmix            # append-heavy probe: full recompile vs delta compile
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
	micro := fs.Bool("micro", false, "measure the micro benchmarks (ns/op, allocs/op) into the -json record")
	comparePath := fs.String("compare", "", "baseline BENCH_*.json: fail on retrieval-count drift or micro ns/op regressions beyond -tolerance")
	tolerance := fs.Float64("tolerance", 0.15, "allowed fractional micro ns/op regression for -compare")
	benchRounds := fs.Int("benchrounds", 3, "micro benchmark repetitions; the fastest round is recorded")
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
	if *traceGuard {
		out := stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		return runTraceGuard(*benchRounds, *traceTolerance, out)
	}
	if *recovery {
		out := stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		res, err := runRecoveryProbe(*recoveryRecords, *benchRounds, out)
		if err != nil {
			return err
		}
		if *jsonOut {
			path, err := writeRecoveryJSON(".", res)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
		if *recoveryMinSpeedup > 0 && res.Speedup < *recoveryMinSpeedup {
			return fmt.Errorf("recovery speedup %.2fx below the required %.2fx", res.Speedup, *recoveryMinSpeedup)
		}
		return nil
	}
	if *appendmix {
		out := stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		res, err := runAppendmixProbe(*appendmixBase, *appendmixAppends, *benchRounds, out)
		if err != nil {
			return err
		}
		if *jsonOut {
			path, err := writeAppendmixJSON(".", res)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
		if *appendmixMinSpeedup > 0 && res.Speedup < *appendmixMinSpeedup {
			return fmt.Errorf("appendmix speedup %.2fx below the required %.2fx", res.Speedup, *appendmixMinSpeedup)
		}
		return nil
	}
	var baseline *benchFile
	if *comparePath != "" {
		bf, err := readBenchJSON(*comparePath)
		if err != nil {
			return err
		}
		baseline = bf
	}
	sizes := harness.DefaultSizes
	if baseline != nil {
		// Compare like with like: reproduce the baseline's sweep.
		sizes = baseline.Sizes
	}
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
	if *experiment == "fig3-dot" {
		return harness.WriteHierarchyDOT(out)
	}
	ids := []string{*experiment}
	if *experiment == "all" {
		ids = []string{"tab1", "tab2", "tab3", "tab4", "tab5", "fig1", "fig2", "fig3"}
	}
	var tables []*harness.Table
	var wall []time.Duration
	for _, id := range ids {
		start := time.Now()
		t, err := harness.ByID(id, sizes)
		if err != nil {
			return err
		}
		wall = append(wall, time.Since(start))
		tables = append(tables, t)
	}
	var micros []bench.Micro
	if *micro || (baseline != nil && len(baseline.Micro) > 0) {
		micros = bench.Run(*benchRounds)
	}
	if *jsonOut {
		path, err := writeBenchJSON(".", sizes, tables, wall, micros)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	if baseline != nil {
		if err := compareBaseline(baseline, tables, micros, *tolerance, out); err != nil {
			return err
		}
		fmt.Fprintf(out, "compare: OK against %s\n", *comparePath)
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
// repo's machine-readable perf trajectory.
type benchFile struct {
	Timestamp   string            `json:"timestamp"`
	Sizes       []int             `json:"sizes"`
	Experiments []benchExperiment `json:"experiments"`
	Micro       []bench.Micro     `json:"micro,omitempty"`
	Recovery    *recoveryResult   `json:"recovery,omitempty"`
	Appendmix   *appendmixResult  `json:"appendmix,omitempty"`
}

// writeAppendmixJSON writes a BENCH record holding only the appendmix
// probe (the -appendmix mode runs no experiment sweep).
func writeAppendmixJSON(dir string, res *appendmixResult) (string, error) {
	now := time.Now()
	bf := benchFile{Timestamp: now.Format(time.RFC3339), Appendmix: res}
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

// writeRecoveryJSON writes a BENCH record holding only the recovery
// probe (the -recovery mode runs no experiment sweep).
func writeRecoveryJSON(dir string, res *recoveryResult) (string, error) {
	now := time.Now()
	bf := benchFile{Timestamp: now.Format(time.RFC3339), Recovery: res}
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

// writeBenchJSON writes the benchmark record into dir and returns the
// file's path.
func writeBenchJSON(dir string, sizes []int, tables []*harness.Table, wall []time.Duration, micros []bench.Micro) (string, error) {
	now := time.Now()
	bf := benchFile{Timestamp: now.Format(time.RFC3339), Sizes: sizes, Micro: micros}
	for i, t := range tables {
		bf.Experiments = append(bf.Experiments, benchExperiment{
			ID:     t.ID,
			Title:  t.Title,
			WallMS: float64(wall[i].Microseconds()) / 1000,
			Header: t.Header,
			Rows:   t.Rows,
			Notes:  t.Notes,
		})
	}
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

// readBenchJSON loads a BENCH_*.json baseline.
func readBenchJSON(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &bf, nil
}

// compareBaseline checks the current run against a baseline record.
// Retrieval-count cells are deterministic, so any drift in an
// experiment shared with the baseline is an error. Micro ns/op and
// allocs/op are timing-dependent: they may regress by at most the
// given fractional tolerance. All violations are reported, not just
// the first.
func compareBaseline(baseline *benchFile, tables []*harness.Table, micros []bench.Micro, tolerance float64, out io.Writer) error {
	current := make(map[string]*harness.Table, len(tables))
	for _, t := range tables {
		current[t.ID] = t
	}
	var violations []string
	for _, be := range baseline.Experiments {
		t, ok := current[be.ID]
		if !ok {
			continue // baseline has experiments this invocation did not run
		}
		if len(be.Rows) != len(t.Rows) {
			violations = append(violations, fmt.Sprintf("%s: %d rows, baseline has %d", be.ID, len(t.Rows), len(be.Rows)))
			continue
		}
		for i := range be.Rows {
			for j := range be.Rows[i] {
				if j < len(t.Rows[i]) && be.Rows[i][j] != t.Rows[i][j] {
					violations = append(violations,
						fmt.Sprintf("%s row %d col %d: %q, baseline %q (retrieval counts are deterministic — this is a behavior change)",
							be.ID, i, j, t.Rows[i][j], be.Rows[i][j]))
				}
			}
		}
	}
	cur := make(map[string]bench.Micro, len(micros))
	for _, m := range micros {
		cur[m.Name] = m
	}
	for _, base := range baseline.Micro {
		m, ok := cur[base.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("micro %s: present in baseline, not measured", base.Name))
			continue
		}
		if base.NsPerOp > 0 && m.NsPerOp > base.NsPerOp*(1+tolerance) {
			violations = append(violations, fmt.Sprintf("micro %s: %.1f ns/op, baseline %.1f (>%.0f%% regression)",
				base.Name, m.NsPerOp, base.NsPerOp, tolerance*100))
		} else {
			fmt.Fprintf(out, "compare: %s %.1f ns/op vs baseline %.1f\n", base.Name, m.NsPerOp, base.NsPerOp)
		}
		if float64(m.AllocsPerOp) > float64(base.AllocsPerOp)*(1+tolerance)+0.5 {
			violations = append(violations, fmt.Sprintf("micro %s: %d allocs/op, baseline %d",
				base.Name, m.AllocsPerOp, base.AllocsPerOp))
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(out, "REGRESSION:", v)
		}
		return fmt.Errorf("%d regression(s) against baseline", len(violations))
	}
	return nil
}
