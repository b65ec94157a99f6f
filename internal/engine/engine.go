// Package engine evaluates Datalog programs bottom-up over the
// relation store: naive and seminaive fixpoints, stratified negation,
// arithmetic builtins, and iteration guards that turn non-terminating
// computations (e.g. the counting rewrite on cyclic data, the unsafe
// regime of Saccà & Zaniolo's Table 1) into clean errors.
package engine

import (
	"context"
	"errors"
	"fmt"

	"magiccounting/internal/datalog"
	"magiccounting/internal/obs"
	"magiccounting/internal/relation"
)

// ErrIterationLimit is returned when a stratum's fixpoint fails to
// converge within Options.MaxIterations — the engine's safety guard.
var ErrIterationLimit = errors.New("engine: iteration limit exceeded (non-terminating fixpoint?)")

// Options configures an evaluation.
type Options struct {
	// Naive forces the naive fixpoint (re-deriving everything each
	// round) instead of seminaive differentials. Used for ground truth
	// and ablation benchmarks.
	Naive bool
	// MaxIterations bounds the rounds of any one stratum's fixpoint.
	// Zero selects DefaultMaxIterations.
	MaxIterations int
	// Ctx, when non-nil, cancels the evaluation: every fixpoint round
	// polls it and Eval returns ctx.Err() once it is done, matching
	// the cancellation semantics of the core solver path.
	Ctx context.Context
	// Trace, when non-nil and armed, receives the evaluation's span
	// tree: one span per stratum with per-round children carrying the
	// round's duration, its meter delta (tuple retrievals charged to
	// the store), and the delta-relation sizes feeding it. Tracing
	// never touches the meter, so results and charges are identical
	// with and without it.
	Trace *obs.Trace
}

// ctxErr polls the options context (nil context never errs).
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// DefaultMaxIterations is the default per-stratum round bound. It is
// far above anything a terminating program needs on test data.
const DefaultMaxIterations = 1 << 20

// Stats reports what an evaluation did.
type Stats struct {
	// Iterations counts fixpoint rounds summed over strata.
	Iterations int
	// Derived counts tuples added to IDB relations.
	Derived int
	// DerivedByPred breaks Derived down per IDB predicate — the
	// profile that shows where an evaluation spends its work (e.g.
	// how many magic tuples vs. modified-rule tuples a rewrite
	// materializes).
	DerivedByPred map[string]int
	// Strata is the number of evaluation strata.
	Strata int
}

// note records a derivation in the stats.
func (s *Stats) note(pred string) {
	s.Derived++
	if s.DerivedByPred == nil {
		s.DerivedByPred = make(map[string]int)
	}
	s.DerivedByPred[pred]++
}

// Eval materializes every IDB predicate of p into store, loading the
// program's facts first. The store's meter keeps charging as usual, so
// callers can read the tuple-retrieval cost afterwards.
func Eval(p *datalog.Program, store *relation.Store, opts Options) (*Stats, error) {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = DefaultMaxIterations
	}
	if err := opts.ctxErr(); err != nil {
		return nil, err
	}
	if err := p.CheckSafety(); err != nil {
		return nil, err
	}
	arities, err := p.PredArities()
	if err != nil {
		return nil, err
	}
	ls := opts.Trace.Start("load", store.Meter().Retrievals())
	for _, f := range p.Facts {
		store.Relation(f.Pred, len(f.Args)).Insert(f.Tuple())
	}
	// Make sure every referenced predicate exists, so evaluation of
	// rules over empty relations works.
	for pred, ar := range arities {
		if !datalog.IsBuiltinPred(pred) {
			store.Relation(pred, ar)
		}
	}
	ls.Set("facts", int64(len(p.Facts)))
	opts.Trace.End(ls, store.Meter().Retrievals())
	strata, err := p.DependencyOrder()
	if err != nil {
		return nil, err
	}
	stats := &Stats{Strata: len(strata)}
	for i, rules := range strata {
		sp := opts.Trace.Start(fmt.Sprintf("stratum/%d", i), store.Meter().Retrievals())
		sp.Set("rules", int64(len(rules)))
		before := stats.Iterations
		err := evalStratum(rules, store, opts, stats)
		sp.Set("iterations", int64(stats.Iterations-before))
		opts.Trace.End(sp, store.Meter().Retrievals())
		if err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// Answers evaluates p and returns the sorted tuples matching goal.
func Answers(p *datalog.Program, goal datalog.Atom, store *relation.Store, opts Options) ([]relation.Tuple, error) {
	if _, err := Eval(p, store, opts); err != nil {
		return nil, err
	}
	return Match(store, goal), nil
}

// Match returns the sorted tuples of goal's relation consistent with
// the goal's constants and repeated variables.
func Match(store *relation.Store, goal datalog.Atom) []relation.Tuple {
	rel, ok := store.Lookup(goal.Pred)
	if !ok {
		return nil
	}
	env := make(bindings)
	var out []relation.Tuple
	matchAtom(rel, goal, env, func(t relation.Tuple) {
		out = append(out, t.Clone())
	})
	res := relation.New("match", rel.Arity(), nil)
	for _, t := range out {
		res.Insert(t)
	}
	return res.SortedTuples()
}

func evalStratum(rules []datalog.Rule, store *relation.Store, opts Options, stats *Stats) error {
	if len(rules) == 0 {
		return nil
	}
	heads := make(map[string]bool)
	for _, r := range rules {
		heads[r.Head.Pred] = true
		store.Relation(r.Head.Pred, len(r.Head.Args))
	}
	if opts.Naive {
		return evalNaive(rules, store, opts, stats)
	}
	return evalSeminaive(rules, heads, store, opts, stats)
}

func evalNaive(rules []datalog.Rule, store *relation.Store, opts Options, stats *Stats) error {
	rt := roundTrace{tr: opts.Trace, meter: store.Meter()}
	defer rt.done()
	for round := 0; ; round++ {
		if round >= opts.MaxIterations {
			return fmt.Errorf("%w after %d rounds", ErrIterationLimit, round)
		}
		if err := opts.ctxErr(); err != nil {
			return err
		}
		rt.begin(round, -1)
		stats.Iterations++
		added := 0
		for _, r := range rules {
			r := r
			rel := store.Relation(r.Head.Pred, len(r.Head.Args))
			evalRule(r, store, nil, -1, func(t relation.Tuple) {
				if rel.Insert(t) {
					added++
					stats.note(r.Head.Pred)
				}
			})
		}
		if added == 0 {
			return nil
		}
	}
}

func evalSeminaive(rules []datalog.Rule, heads map[string]bool, store *relation.Store, opts Options, stats *Stats) error {
	rt := roundTrace{tr: opts.Trace, meter: store.Meter()}
	defer rt.done()

	// Round 0: full evaluation seeds the deltas.
	rt.begin(0, -1)
	deltas := make(map[string]*relation.Relation)
	stats.Iterations++
	for _, r := range rules {
		r := r
		rel := store.Relation(r.Head.Pred, len(r.Head.Args))
		if deltas[r.Head.Pred] == nil {
			deltas[r.Head.Pred] = store.Scratch("Δ"+r.Head.Pred, rel.Arity())
		}
		d := deltas[r.Head.Pred]
		evalRule(r, store, nil, -1, func(t relation.Tuple) {
			if rel.Insert(t) {
				stats.note(r.Head.Pred)
				d.Insert(t)
			}
		})
	}
	for round := 1; ; round++ {
		if round >= opts.MaxIterations {
			return fmt.Errorf("%w after %d rounds", ErrIterationLimit, round)
		}
		if err := opts.ctxErr(); err != nil {
			return err
		}
		total := 0
		for _, d := range deltas {
			total += d.Len()
		}
		if total == 0 {
			return nil
		}
		rt.begin(round, int64(total))
		stats.Iterations++
		next := make(map[string]*relation.Relation)
		for _, r := range rules {
			r := r
			rel := store.Relation(r.Head.Pred, len(r.Head.Args))
			if next[r.Head.Pred] == nil {
				next[r.Head.Pred] = store.Scratch("Δ"+r.Head.Pred, rel.Arity())
			}
			nd := next[r.Head.Pred]
			// One differential per recursive body literal: match that
			// literal against its predicate's delta, the rest against
			// the full relations.
			for i, l := range r.Body {
				if l.Negated || l.Atom.IsBuiltin() || !heads[l.Atom.Pred] {
					continue
				}
				d := deltas[l.Atom.Pred]
				if d == nil || d.Len() == 0 {
					continue
				}
				evalRule(r, store, d, i, func(t relation.Tuple) {
					if rel.Insert(t) {
						stats.note(r.Head.Pred)
						nd.Insert(t)
					}
				})
			}
		}
		deltas = next
	}
}

// bindings maps variable names to constants during body evaluation.
type bindings map[string]relation.Value

// evalRule enumerates the ground heads derivable from r. If deltaPos
// is non-negative, the body literal at that original position reads
// from delta instead of its stored relation. Builtins and negated
// literals are deferred until their inputs are bound, so rules only
// need to be statically safe, not textually ordered.
func evalRule(r datalog.Rule, store *relation.Store, delta *relation.Relation, deltaPos int, emit func(relation.Tuple)) {
	order := orderBody(r)
	env := make(bindings)
	var walk func(i int)
	walk = func(i int) {
		if i == len(order) {
			t := make(relation.Tuple, len(r.Head.Args))
			for k, arg := range r.Head.Args {
				t[k] = valueOf(arg, env)
			}
			emit(t)
			return
		}
		l := r.Body[order[i]]
		switch {
		case l.Atom.IsBuiltin():
			evalBuiltin(l.Atom, env, func() { walk(i + 1) })
		case l.Negated:
			rel, ok := store.Lookup(l.Atom.Pred)
			if !ok || !hasMatch(rel, l.Atom, env) {
				walk(i + 1)
			}
		default:
			rel, ok := store.Lookup(l.Atom.Pred)
			if order[i] == deltaPos {
				rel, ok = delta, delta != nil
			}
			if !ok {
				return
			}
			matchAtom(rel, l.Atom, env, func(relation.Tuple) { walk(i + 1) })
		}
	}
	walk(0)
}

// orderBody returns an evaluation order of r's body positions that
// keeps positive non-builtin literals in textual order but schedules
// each builtin and negated literal at the earliest point where it is
// evaluable. Unschedulable literals (unsafe rules) stay at the end in
// textual order, where evaluation will report the unbound variable.
func orderBody(r datalog.Rule) []int {
	n := len(r.Body)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make(map[string]bool)
	evaluable := func(l datalog.Literal) bool {
		known := func(t datalog.Term) bool { return !t.IsVar() || bound[t.Var] }
		if l.Negated {
			for _, t := range l.Atom.Args {
				if !known(t) {
					return false
				}
			}
			return true
		}
		a := l.Atom
		switch a.Pred {
		case datalog.BuiltinEq:
			return known(a.Args[0]) || known(a.Args[1])
		case datalog.BuiltinAdd:
			kn := 0
			for _, t := range a.Args {
				if known(t) {
					kn++
				}
			}
			return kn >= 2
		default: // comparisons
			for _, t := range a.Args {
				if !known(t) {
					return false
				}
			}
			return true
		}
	}
	bind := func(l datalog.Literal) {
		if l.Negated {
			return
		}
		for _, t := range l.Atom.Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	for len(order) < n {
		picked := -1
		// Deferred literals first, as soon as they become evaluable.
		for i, l := range r.Body {
			if !used[i] && (l.Negated || l.Atom.IsBuiltin()) && evaluable(l) {
				picked = i
				break
			}
		}
		if picked == -1 {
			for i, l := range r.Body {
				if !used[i] && !l.Negated && !l.Atom.IsBuiltin() {
					picked = i
					break
				}
			}
		}
		if picked == -1 {
			// Only unevaluable builtins/negations remain; emit them in
			// textual order and let evaluation flag the unsafe rule.
			for i := range r.Body {
				if !used[i] {
					picked = i
					break
				}
			}
		}
		used[picked] = true
		order = append(order, picked)
		bind(r.Body[picked])
	}
	return order
}

// valueOf resolves a term under env; it panics on unbound variables,
// which CheckSafety rules out for well-formed programs.
func valueOf(t datalog.Term, env bindings) relation.Value {
	if !t.IsVar() {
		return t.Const
	}
	v, ok := env[t.Var]
	if !ok {
		panic("engine: unbound variable " + t.Var + " (program not range-restricted?)")
	}
	return v
}

// matchAtom unifies atom a against rel under env, calling next for
// every matching tuple with the atom's free variables bound. Bindings
// added for a match are undone before trying the next tuple.
func matchAtom(rel *relation.Relation, a datalog.Atom, env bindings, next func(relation.Tuple)) {
	var cols []int
	var vals []relation.Value
	for i, t := range a.Args {
		if !t.IsVar() {
			cols = append(cols, i)
			vals = append(vals, t.Const)
		} else if v, ok := env[t.Var]; ok {
			cols = append(cols, i)
			vals = append(vals, v)
		}
	}
	rel.Lookup(cols, vals, func(t relation.Tuple) bool {
		var boundHere []string
		ok := true
		for i, arg := range a.Args {
			if !arg.IsVar() {
				continue
			}
			if v, bound := env[arg.Var]; bound {
				if v != t[i] {
					ok = false
					break
				}
				continue
			}
			env[arg.Var] = t[i]
			boundHere = append(boundHere, arg.Var)
		}
		if ok {
			next(t)
		}
		for _, v := range boundHere {
			delete(env, v)
		}
		return true
	})
}

// hasMatch reports whether any tuple of rel matches a under env
// (used for negated literals; all variables are bound by safety).
func hasMatch(rel *relation.Relation, a datalog.Atom, env bindings) bool {
	found := false
	matchAtom(rel, a, env, func(relation.Tuple) { found = true })
	return found
}

// evalBuiltin evaluates a builtin atom under env, calling next for
// each solution (0 or 1). It may temporarily bind output variables.
func evalBuiltin(a datalog.Atom, env bindings, next func()) {
	get := func(t datalog.Term) (relation.Value, bool) {
		if !t.IsVar() {
			return t.Const, true
		}
		v, ok := env[t.Var]
		return v, ok
	}
	withBinding := func(t datalog.Term, v relation.Value) {
		if !t.IsVar() {
			if t.Const == v {
				next()
			}
			return
		}
		if old, ok := env[t.Var]; ok {
			if old == v {
				next()
			}
			return
		}
		env[t.Var] = v
		next()
		delete(env, t.Var)
	}
	switch a.Pred {
	case datalog.BuiltinEq:
		x, xok := get(a.Args[0])
		y, yok := get(a.Args[1])
		switch {
		case xok && yok:
			if x == y {
				next()
			}
		case xok:
			withBinding(a.Args[1], x)
		case yok:
			withBinding(a.Args[0], y)
		default:
			panic("engine: = with both sides unbound")
		}
	case datalog.BuiltinAdd:
		x, xok := get(a.Args[0])
		y, yok := get(a.Args[1])
		z, zok := get(a.Args[2])
		// All bound arguments must be integers; a symbol simply fails
		// to satisfy arithmetic.
		for _, pair := range []struct {
			ok bool
			v  relation.Value
		}{{xok, x}, {yok, y}, {zok, z}} {
			if pair.ok && !pair.v.IsInt() {
				return
			}
		}
		switch {
		case xok && yok:
			withBinding(a.Args[2], relation.Int(x.Num()+y.Num()))
		case xok && zok:
			withBinding(a.Args[1], relation.Int(z.Num()-x.Num()))
		case yok && zok:
			withBinding(a.Args[0], relation.Int(z.Num()-y.Num()))
		default:
			panic("engine: #add with fewer than two bound arguments")
		}
	case datalog.BuiltinNeq, datalog.BuiltinLt, datalog.BuiltinLe, datalog.BuiltinGt, datalog.BuiltinGe:
		x, xok := get(a.Args[0])
		y, yok := get(a.Args[1])
		if !xok || !yok {
			panic("engine: comparison " + a.Pred + " with unbound argument")
		}
		if compare(a.Pred, x, y) {
			next()
		}
	default:
		panic("engine: unknown builtin " + a.Pred)
	}
}

func compare(pred string, x, y relation.Value) bool {
	switch pred {
	case datalog.BuiltinNeq:
		return x != y
	case datalog.BuiltinLt, datalog.BuiltinLe, datalog.BuiltinGt, datalog.BuiltinGe:
		if !x.IsInt() || !y.IsInt() {
			// Order symbols lexicographically so comparisons are total.
			xi, yi := x.String(), y.String()
			switch pred {
			case datalog.BuiltinLt:
				return xi < yi
			case datalog.BuiltinLe:
				return xi <= yi
			case datalog.BuiltinGt:
				return xi > yi
			default:
				return xi >= yi
			}
		}
		switch pred {
		case datalog.BuiltinLt:
			return x.Num() < y.Num()
		case datalog.BuiltinLe:
			return x.Num() <= y.Num()
		case datalog.BuiltinGt:
			return x.Num() > y.Num()
		default:
			return x.Num() >= y.Num()
		}
	}
	return false
}
