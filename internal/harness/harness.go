// Package harness defines one executable experiment per table and
// figure of the paper's evaluation, running the core methods over
// generated workloads and reporting measured tuple-retrieval costs
// next to the paper's Θ predictions. cmd/mcbench, bench_test.go, and
// EXPERIMENTS.md are all driven from here.
package harness

import (
	"fmt"
	"io"
	"strings"

	"magiccounting/internal/core"
)

// MethodDef names a runnable method.
type MethodDef struct {
	// Name is the CLI-facing identifier, e.g. "mc-multiple-int".
	Name string
	// Describe is a one-line human description.
	Describe string
	// Run evaluates a query with the method.
	Run func(core.Query) (*core.Result, error)
	// RunOpts evaluates with run options (context, tracing). Nil for
	// methods with no options-taking entry point (naive, magic), which
	// therefore cannot be traced.
	RunOpts func(core.Query, core.Options) (*core.Result, error)
	// RunC evaluates a bound source against a pre-built Compiled — the
	// build-once path for callers solving many sources over one
	// database (mcq -sources, the compile amortization probes).
	RunC func(*core.Compiled, string, core.Options) (*core.Result, error)
}

// Methods lists every evaluable method: the naive ground truth, the
// two baselines, the eight magic counting family members, and the two
// extensions.
var Methods = []MethodDef{
	{"naive", "naive bottom-up evaluation of the original program", core.Query.SolveNaive, nil,
		func(c *core.Compiled, src string, _ core.Options) (*core.Result, error) { return c.SolveNaive(src) }},
	{"counting", "counting method (§2); unsafe on cyclic magic graphs", core.Query.SolveCounting,
		func(q core.Query, o core.Options) (*core.Result, error) { return q.SolveCountingOpts(o) },
		func(c *core.Compiled, src string, o core.Options) (*core.Result, error) {
			return c.SolveCounting(src, o)
		}},
	{"counting-cyclic", "generalized counting extension (safe, [MPS]/[SZ2] footnote)", core.Query.SolveCountingCyclic,
		func(q core.Query, o core.Options) (*core.Result, error) { return q.SolveCountingCyclicOpts(o) },
		func(c *core.Compiled, src string, o core.Options) (*core.Result, error) {
			return c.SolveCountingCyclic(src, o)
		}},
	{"magic", "magic set method (§2)", core.Query.SolveMagic, nil,
		func(c *core.Compiled, src string, _ core.Options) (*core.Result, error) { return c.SolveMagic(src) }},
	{"mc-basic-ind", "basic magic counting, independent (§4, §6)", mc(core.Basic, core.Independent), mcOpts(core.Basic, core.Independent), mcC(core.Basic, core.Independent)},
	{"mc-basic-int", "basic magic counting, integrated (§5, §6)", mc(core.Basic, core.Integrated), mcOpts(core.Basic, core.Integrated), mcC(core.Basic, core.Integrated)},
	{"mc-single-ind", "single magic counting, independent (§7)", mc(core.Single, core.Independent), mcOpts(core.Single, core.Independent), mcC(core.Single, core.Independent)},
	{"mc-single-int", "single magic counting, integrated (§7; the [SZ1] method)", mc(core.Single, core.Integrated), mcOpts(core.Single, core.Integrated), mcC(core.Single, core.Integrated)},
	{"mc-multiple-ind", "multiple magic counting, independent (§8)", mc(core.Multiple, core.Independent), mcOpts(core.Multiple, core.Independent), mcC(core.Multiple, core.Independent)},
	{"mc-multiple-int", "multiple magic counting, integrated (§8)", mc(core.Multiple, core.Integrated), mcOpts(core.Multiple, core.Integrated), mcC(core.Multiple, core.Integrated)},
	{"mc-recurring-ind", "recurring magic counting, independent (§9)", mc(core.Recurring, core.Independent), mcOpts(core.Recurring, core.Independent), mcC(core.Recurring, core.Independent)},
	{"mc-recurring-int", "recurring magic counting, integrated (§9)", mc(core.Recurring, core.Integrated), mcOpts(core.Recurring, core.Integrated), mcC(core.Recurring, core.Integrated)},
	{"mc-recurring-scc", "recurring integrated with the Tarjan Step 1 (§9 improvement)",
		func(q core.Query) (*core.Result, error) {
			return q.SolveMagicCountingOpts(core.Recurring, core.Integrated, core.Options{SCCStep1: true})
		},
		func(q core.Query, o core.Options) (*core.Result, error) {
			o.SCCStep1 = true
			return q.SolveMagicCountingOpts(core.Recurring, core.Integrated, o)
		},
		func(c *core.Compiled, src string, o core.Options) (*core.Result, error) {
			o.SCCStep1 = true
			return c.Solve(src, core.Recurring, core.Integrated, o)
		}},
}

func mc(s core.Strategy, m core.Mode) func(core.Query) (*core.Result, error) {
	return func(q core.Query) (*core.Result, error) { return q.SolveMagicCounting(s, m) }
}

func mcOpts(s core.Strategy, m core.Mode) func(core.Query, core.Options) (*core.Result, error) {
	return func(q core.Query, o core.Options) (*core.Result, error) {
		return q.SolveMagicCountingOpts(s, m, o)
	}
}

func mcC(s core.Strategy, m core.Mode) func(*core.Compiled, string, core.Options) (*core.Result, error) {
	return func(c *core.Compiled, src string, o core.Options) (*core.Result, error) {
		return c.Solve(src, s, m, o)
	}
}

// MethodByName finds a method definition.
func MethodByName(name string) (MethodDef, bool) {
	for _, m := range Methods {
		if m.Name == name {
			return m, true
		}
	}
	return MethodDef{}, false
}

// MethodNames lists the registered method names in order.
func MethodNames() []string {
	names := make([]string, len(Methods))
	for i, m := range Methods {
		names[i] = m.Name
	}
	return names
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// cost runs a method and formats its retrieval count; errors (the
// counting method's ErrUnsafe) render as the paper's "unsafe".
func cost(def MethodDef, q core.Query) string {
	res, err := def.Run(q)
	if err != nil {
		return "unsafe"
	}
	return fmt.Sprintf("%d", res.Stats.Retrievals)
}

// mustCost runs a method that is expected to succeed and returns the
// retrieval count.
func mustCost(def MethodDef, q core.Query) int64 {
	res, err := def.Run(q)
	if err != nil {
		panic(fmt.Sprintf("harness: %s failed: %v", def.Name, err))
	}
	return res.Stats.Retrievals
}
