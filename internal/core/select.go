package core

// Regime is the database regime of Figure 3 and Table 1: the shape of
// the magic graph reachable from the query constant, which decides
// which method the paper's efficiency hierarchy ranks best.
type Regime uint8

const (
	// RegimeRegular: every magic-graph node is single; the pure
	// counting method is safe and optimal.
	RegimeRegular Regime = iota
	// RegimeAcyclic: some node is multiple but none recurring; the
	// counting method still terminates but wastes work re-deriving.
	RegimeAcyclic
	// RegimeCyclic: some node is recurring; pure counting diverges
	// and only magic-gated methods are safe.
	RegimeCyclic
)

// String names the regime as Figure 3 labels its arcs.
func (r Regime) String() string {
	switch r {
	case RegimeRegular:
		return "regular"
	case RegimeAcyclic:
		return "acyclic"
	default:
		return "cyclic"
	}
}

// Selection is a method choice with the analysis that justified it.
type Selection struct {
	Strategy Strategy
	Mode     Mode
	Options  Options
	Regime   Regime
	// Reason is a one-line human-readable justification.
	Reason string
}

// ChooseMethod picks a magic counting method for the query the way
// Figure 3's efficiency hierarchy ranks them per regime:
//
//   - regular graphs: basic/integrated — Step 1 is a single Θ(m_L)
//     BFS and Step 2 degenerates to the pure counting method, the
//     optimum of Table 1's first row;
//   - acyclic non-regular graphs: multiple/integrated — the bounded
//     two-occurrence fixpoint isolates exactly the single nodes at
//     Θ(m_L), beating single (coarser split) and recurring (whose
//     naive Step 1 costs Θ(n_L·m_L));
//   - cyclic graphs: recurring/integrated with the Tarjan SCC Step 1
//     — the finest split at O(m_L + n_m·m_m), the paper's §9
//     improvement, confining magic evaluation to the truly recurring
//     nodes.
//
// The analysis itself is graph.Classify over the compiled G_L rows —
// confined to the nodes and arcs the source reaches, see there — and is
// not charged to any meter.
func ChooseMethod(q Query) Selection {
	return Compile(q.L, q.E, q.R).ChooseMethod(q.Source)
}

// ChooseMethod picks a magic counting method for one source on the
// compiled instance; see the function-level ChooseMethod for the
// selection policy. The classification reads the artifact's G_L rows
// in place and is confined to what the source reaches.
func (c *Compiled) ChooseMethod(source string) Selection {
	cls := c.bind(source).classify()
	switch {
	case cls.Regular:
		return Selection{
			Strategy: Basic,
			Mode:     Integrated,
			Regime:   RegimeRegular,
			Reason:   "magic graph is regular: basic/integrated degenerates to the optimal pure counting evaluation",
		}
	case !cls.HasRecurring:
		return Selection{
			Strategy: Multiple,
			Mode:     Integrated,
			Regime:   RegimeAcyclic,
			Reason:   "magic graph is acyclic but non-regular: multiple/integrated isolates the single nodes in Θ(m_L)",
		}
	default:
		return Selection{
			Strategy: Recurring,
			Mode:     Integrated,
			Options:  Options{SCCStep1: true},
			Regime:   RegimeCyclic,
			Reason:   "magic graph is cyclic: recurring/integrated with the Tarjan Step 1 confines magic work to recurring nodes",
		}
	}
}

// SolveAuto evaluates the query with the method ChooseMethod selects,
// returning the selection alongside the result. opts supplies run
// options (notably Ctx); the selection's own Options are merged in.
func (q Query) SolveAuto(opts Options) (*Result, Selection, error) {
	return compileTraced(q, opts.Trace).SolveAuto(q.Source, opts)
}

// SolveAuto evaluates one source on the compiled instance with the
// method ChooseMethod selects, returning the selection alongside the
// result.
func (c *Compiled) SolveAuto(source string, opts Options) (*Result, Selection, error) {
	cs := opts.Trace.Start("classify", 0)
	sel := c.ChooseMethod(source)
	if cs != nil {
		cs.Name = "classify/" + sel.Regime.String()
	}
	opts.Trace.End(cs, 0)
	run := sel.Options
	run.Ctx = opts.Ctx
	run.Trace = opts.Trace
	res, err := c.Solve(source, sel.Strategy, sel.Mode, run)
	return res, sel, err
}
