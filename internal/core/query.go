// Package core implements the query-evaluation methods of Saccà &
// Zaniolo, "Magic Counting Methods" (SIGMOD 1987), for the canonical
// strongly linear query class
//
//	?- P(a, Y).
//	P(X, Y) :- E(X, Y).
//	P(X, Y) :- L(X, X1), P(X1, Y1), R(Y, Y1).
//
// It provides the two baselines — the counting method and the magic
// set method (§2) — and the full magic counting family: the basic,
// single, multiple, and recurring strategies for constructing the
// reduced sets RM and RC (§§6–9), each in independent (§4) and
// integrated (§5) mode.
//
// Costs are accounted in the paper's unit, tuple retrievals from the
// database relations L, E, and R (plus dedup probes on derived
// relations), so the Θ bounds of Tables 1–5 can be measured directly.
//
// The database relations compile once into an immutable Compiled
// artifact (CSR adjacency plus interned symbol tables) that any
// number of concurrent queries share; the Query.Solve* methods are
// thin compile-and-run wrappers over it.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"magiccounting/internal/graph"
	"magiccounting/internal/obs"
)

// ErrUnsafe reports that the pure counting method would not terminate:
// the magic graph has a recurring node, so the counting set is
// infinite (the "unsafe" entry of Table 1).
var ErrUnsafe = errors.New("core: counting method is unsafe (cyclic magic graph)")

// Pair is one fact of a binary database relation.
type Pair struct {
	From, To string
}

// P is shorthand for constructing a Pair.
func P(from, to string) Pair { return Pair{From: from, To: to} }

// Query is an instance of the canonical strongly linear query: the
// three database relations and the bound constant of the query goal
// ?- P(Source, Y).
//
// In the same-generation reading, L and R are both the parent
// relation and E is the identity (everyone is their own generation
// peer); the general form lets the three relations differ.
type Query struct {
	L      []Pair
	E      []Pair
	R      []Pair
	Source string
}

// SameGeneration builds the classic instance: L = R = parent and
// E = {(x, x) | x occurs anywhere in parent or equals source}.
func SameGeneration(parent []Pair, source string) Query {
	seen := make(map[string]bool)
	var e []Pair
	add := func(x string) {
		if !seen[x] {
			seen[x] = true
			e = append(e, Pair{x, x})
		}
	}
	add(source)
	for _, p := range parent {
		add(p.From)
		add(p.To)
	}
	return Query{L: parent, E: e, R: parent, Source: source}
}

// instance is the per-run state of one query evaluation: a bound
// source over a shared *Compiled, plus the retrieval meter, trace
// sink, and cancellation state. It is cheap to create (bind is O(1))
// and never outlives the run; everything heavy lives in the Compiled.
type instance struct {
	c *Compiled

	// nL and nR are the effective domain sizes for this run. nL is
	// c.lNames.n plus one when the source is a virtual node (a
	// constant occurring in no relation), so every n-dependent bound
	// and charge matches a build that interned the source.
	nL, nR int

	src     int32  // source L-node (may be the virtual id c.lNames.n)
	srcName string // the source constant, for the virtual node's name

	retrievals int64 // tuple retrievals charged so far

	// tr receives the run's span tree; nil when tracing is off, in
	// which case every instrumentation point is one nil check at a
	// stage or round boundary — never per tuple.
	tr *obs.Trace

	ctx       context.Context // nil when cancellation is disabled
	deadline  time.Time       // ctx's deadline, zero when it has none
	ctxStride int64           // charges since the last deadline poll
	ctxErr    error           // sticky ctx.Err(), set once observed
}

// Adjacency accessors: one bounds check over the shared CSR graphs.
// The virtual source id falls past every offset table and reads as an
// empty row.
func (in *instance) lOut(x int32) []int32 { return in.c.lOut.row(x) }
func (in *instance) lIn(x int32) []int32  { return in.c.lIn.row(x) }
func (in *instance) eOut(x int32) []int32 { return in.c.eOut.row(x) }
func (in *instance) rOut(y int32) []int32 { return in.c.rOut.row(y) }

// lName resolves an L-node id to its constant, covering the virtual
// source node.
func (in *instance) lName(v int32) string {
	if int(v) < in.c.lNames.n {
		return in.c.lNames.at(v)
	}
	return in.srcName
}

// lNamesFull returns the L-domain name table for this run as a fresh
// slice the caller may keep, with the virtual source appended when the
// run has one.
func (in *instance) lNamesFull() []string {
	out := in.c.lNames.flat()
	if in.nL > len(out) {
		out = append(out, in.srcName)
	}
	return out
}

// ctxPollStride bounds how many charge calls may pass between two
// polls of ctx.Err(). Each charge call corresponds to at least one
// tuple retrieval, so a stride of 1024 keeps cancellation latency in
// the microsecond range without putting a syscall-ish check on the
// hot path.
const ctxPollStride = 1024

// setContext arms cancellation. A nil or Background context leaves
// the instance uncancellable (zero overhead in charge). The deadline
// is captured separately because ctx.Err() only flips when the
// context's timer goroutine fires — which coarse-timer environments
// delay by tens of milliseconds — while a fast solve can finish
// first; polls compare the clock against the deadline directly so a
// timed-out run is caught at the next poll regardless of timer
// resolution.
func (in *instance) setContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	in.ctx = ctx
	if d, ok := ctx.Deadline(); ok {
		in.deadline = d
	}
}

// observeCtx is the shared poll body: sticky ctx.Err() first, then the
// direct deadline comparison.
func (in *instance) observeCtx() {
	if in.ctxErr = in.ctx.Err(); in.ctxErr == nil &&
		!in.deadline.IsZero() && time.Now().After(in.deadline) {
		in.ctxErr = context.DeadlineExceeded
	}
}

// configure applies run options: cancellation context and the trace
// sink.
func (in *instance) configure(opts Options) {
	in.tr = opts.Trace
	in.setContext(opts.Ctx)
}

// stopped reports whether the run's context has been observed as
// cancelled. Fixpoint loops test it in their conditions so a
// timed-out query stops mid-fixpoint instead of burning CPU.
func (in *instance) stopped() bool { return in.ctxErr != nil }

// pollCtx forces an immediate deadline check (used at phase
// boundaries, where a check is cheap relative to the phase).
func (in *instance) pollCtx() {
	if in.ctx != nil && in.ctxErr == nil {
		in.observeCtx()
	}
}

// build compiles a query and binds its source — the one-shot path the
// Query.Solve* wrappers and the internal tests use. Serving paths
// call Compile once and bind per query instead.
func build(q Query) *instance {
	return Compile(q.L, q.E, q.R).bind(q.Source)
}

// charge adds n tuple retrievals and, every ctxPollStride calls,
// polls the run's context so long fixpoints notice cancellation.
func (in *instance) charge(n int64) {
	in.retrievals += n
	if in.ctx != nil {
		in.ctxStride++
		if in.ctxStride >= ctxPollStride {
			in.ctxStride = 0
			if in.ctxErr == nil {
				in.observeCtx()
			}
		}
	}
}

// classify runs the reach-confined classifier over the artifact's own
// G_L rows; the virtual source is just one more (empty) row.
func (in *instance) classify() *graph.Classification {
	return graph.Classify(in.nL, in.lOut, int(in.src))
}

// lGraph builds a graph.Digraph view of the magic graph G_L (virtual
// source included) over the artifact's rows: O(n_L + m_L) per call,
// for the one-shot diagnostics that need predecessor lists or DOT
// output. Nothing on a query path calls it.
func (in *instance) lGraph() *graph.Digraph {
	rows := make([][]int32, in.nL)
	for u := range rows {
		row := in.lOut(int32(u))
		rows[u] = row[:len(row):len(row)]
	}
	return graph.FromAdjacency(rows)
}

// answerNames maps an answer node set to constant names, sorted once
// here at result construction.
func (in *instance) answerNames(set *graph.NodeSet) []string {
	out := make([]string, 0, set.Len())
	for _, id := range set.Members() {
		out = append(out, in.c.rNames.at(id))
	}
	sort.Strings(out)
	return out
}

// Stats describes one method run: its cost in the paper's unit and
// the sizes of the intermediate sets.
type Stats struct {
	// Retrievals is the total tuple-retrieval cost.
	Retrievals int64
	// Iterations counts fixpoint rounds across all phases.
	Iterations int
	// MagicSetSize is |MS| where the method computes it (0 otherwise).
	MagicSetSize int
	// CountingSetSize is the number of (index, node) pairs in the
	// counting set or reduced counting set used.
	CountingSetSize int
	// RMSize and RCSize are the reduced-set sizes for magic counting
	// methods (RCSize counts (index, node) pairs).
	RMSize, RCSize int
	// Regular reports whether Step 1 found the magic graph regular
	// (all nodes single), where that is determined.
	Regular bool
}

// Result is a method's answer set with its statistics.
type Result struct {
	// Answers holds the sorted constants y with P(source, y).
	Answers []string
	Stats   Stats
}

// String summarizes the result for logs and examples.
func (r *Result) String() string {
	return fmt.Sprintf("%d answers, %d tuple retrievals, %d iterations",
		len(r.Answers), r.Stats.Retrievals, r.Stats.Iterations)
}
