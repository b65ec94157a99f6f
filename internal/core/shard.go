package core

import (
	"sort"

	"magiccounting/internal/graph"
)

// This file is the region-sharding layer: CompileSharded partitions a
// database along the weakly connected components of its combined
// symbol graph (L and R arcs inside their own domains, E arcs
// bridging them) and compiles one independent artifact per shard. The
// partition is answer-preserving by construction: Fact 2's walks
// follow L, E, and R arcs only, so the region a query from source a
// can ever touch is contained in a's weak component, which lives
// whole inside one shard.
//
// Nothing serves a ShardedCompiled any more: a miss on one Compiled
// already costs only what its source reaches, and one Extend costs
// O(delta), so one artifact gets the same confinement for free
// (TestFact2Confinement pins it). The layer stays for the end-to-end
// benchmark's traced shadow and for the equivalence tests that
// compare against it; it goes with ROADMAP item 1's [benchmark] half.

// ShardOpts tunes CompileSharded.
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
type ShardOpts struct {
	// Shards is the target shard count K. Components are packed onto K
	// shards greedily, largest first. Values below 1 select 1.
	Shards int
}

// shard is one region shard: the compiled artifact over exactly the
// facts that landed in it, which are also its only copy of them (see
// Compiled.Facts), and their count.
type shard struct {
	nfacts int
	comp   *Compiled
}

// newShard wraps c as a shard.
func newShard(c *Compiled) *shard {
	l, e, r := c.Arcs()
	return &shard{nfacts: l + e + r, comp: c}
}

// ShardedCompiled is a database compiled as K independent region
// shards behind a symbol->shard router. Like Compiled it is immutable
// once published and safe for any number of concurrent queries;
// Extend returns a new artifact sharing everything the delta does not
// touch. Generation follows the Compiled convention: zero from
// CompileSharded, copied by Extend, stamped by the caller (the
// per-shard artifacts keep their own internal tags and are not
// restamped — routing and staleness are decided at this level).
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
type ShardedCompiled struct {
	Generation uint64

	// shards[i] is slot i's shard. A slot vacated by a merge keeps an
	// empty placeholder (queries can no longer reach it — see redirect)
	// so slot indexes stay stable for routing and metrics.
	shards []*shard

	// routeL/routeR map each symbol name to its home slot, grown by
	// Extend exactly like a Compiled's symbol tables (see symTable).
	// redirect folds merges: a lookup yields a slot, and redirect[slot]
	// is the live shard that absorbed it — merges re-point one array
	// entry instead of rewriting every symbol's route.
	routeL, routeR symTable
	redirect       []int32
}

// ShardExtendStats reports what one sharded Extend did: which live
// slots were touched (ascending, deduplicated), each rolled with one
// delta Extend, and how many shard merges a bridging delta forced (a
// merge of n shards counts n-1).
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
type ShardExtendStats struct {
	Touched       []int
	DeltaExtended int
	// Deprecated: Rebuilt is always 0; every touched slot is extended.
	Rebuilt int
	Merges  int
}

// CompileSharded interns the database's symbol graph, decomposes it
// into weakly connected components with a union-find over the interned
// ids, packs the components onto K
// shards (largest fact-count first onto the emptiest shard, ties to
// the lowest slot — deterministic in the input order), and compiles
// each shard independently. With K=1 there is nothing to partition or
// route: the one shard is a plain Compile.
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
func CompileSharded(L, E, R []Pair, opts ShardOpts) *ShardedCompiled {
	k := opts.Shards
	if k <= 1 {
		return &ShardedCompiled{shards: []*shard{newShard(Compile(L, E, R))}, redirect: []int32{0}}
	}
	// Intern the two symbol domains, in the same relation order a cold
	// Compile uses so component numbering is deterministic.
	lid := make(map[string]int32, len(L))
	rid := make(map[string]int32, len(R))
	var lNames, rNames []string
	internL := func(name string) int32 {
		if id, ok := lid[name]; ok {
			return id
		}
		id := int32(len(lNames))
		lid[name] = id
		lNames = append(lNames, name)
		return id
	}
	internR := func(name string) int32 {
		if id, ok := rid[name]; ok {
			return id
		}
		id := int32(len(rNames))
		rid[name] = id
		rNames = append(rNames, name)
		return id
	}
	// Every fact's endpoint ids, kept for the passes below.
	lf, lt := make([]int32, len(L)), make([]int32, len(L))
	for i, p := range L {
		lf[i], lt[i] = internL(p.From), internL(p.To)
	}
	ef, et := make([]int32, len(E)), make([]int32, len(E))
	for i, p := range E {
		ef[i], et[i] = internL(p.From), internR(p.To)
	}
	rf, rt := make([]int32, len(R)), make([]int32, len(R))
	for i, p := range R {
		rf[i], rt[i] = internR(p.From), internR(p.To)
	}
	nL := int32(len(lNames))

	// The regions are the weak components of the combined symbol graph
	// (L-nodes 0..nL-1, R-nodes nL.., every fact one arc), found by
	// union-find over the fact list and numbered by smallest id.
	uf := graph.NewUnionFind(len(lNames) + len(rNames))
	for i := range L {
		uf.Union(int(lf[i]), int(lt[i]))
	}
	for i := range E {
		uf.Union(int(ef[i]), int(nL+et[i]))
	}
	for i := range R {
		uf.Union(int(nL+rf[i]), int(nL+rt[i]))
	}
	comp, ncomp := uf.Components()

	// Pack components onto K slots by fact count, largest first onto
	// the currently-lightest slot. Both endpoints of a fact share a
	// component, so counting by the From endpoint counts each fact once.
	compFacts := make([]int, ncomp)
	for _, x := range lf {
		compFacts[comp[x]]++
	}
	for _, x := range ef {
		compFacts[comp[x]]++
	}
	for _, x := range rf {
		compFacts[comp[nL+x]]++
	}
	order := make([]int, ncomp)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return compFacts[order[a]] > compFacts[order[b]]
	})
	slotFacts := make([]int, k)
	compSlot := make([]int32, ncomp)
	for _, c := range order {
		best := 0
		for s := 1; s < k; s++ {
			if slotFacts[s] < slotFacts[best] {
				best = s
			}
		}
		compSlot[c] = int32(best)
		slotFacts[best] += compFacts[c]
	}

	sc := &ShardedCompiled{
		shards:   make([]*shard, k),
		routeL:   symTable{base: make(map[string]int32, nL)},
		routeR:   symTable{base: make(map[string]int32, len(rNames))},
		redirect: make([]int32, k),
	}
	for id, name := range lNames {
		sc.routeL.base[name] = compSlot[comp[id]]
	}
	for id, name := range rNames {
		sc.routeR.base[name] = compSlot[comp[int(nL)+id]]
	}
	// Distribute facts in relation order, so each shard's Compile sees
	// its facts in the same relative order the monolithic build would.
	ls, es, rs := make([][]Pair, k), make([][]Pair, k), make([][]Pair, k)
	for i, p := range L {
		slot := compSlot[comp[lf[i]]]
		ls[slot] = append(ls[slot], p)
	}
	for i, p := range E {
		slot := compSlot[comp[ef[i]]]
		es[slot] = append(es[slot], p)
	}
	for i, p := range R {
		slot := compSlot[comp[nL+rf[i]]]
		rs[slot] = append(rs[slot], p)
	}
	for i := range sc.shards {
		sc.shards[i] = newShard(Compile(ls[i], es[i], rs[i]))
		sc.redirect[i] = int32(i)
	}
	return sc
}

// ShardOf returns the live slot that answers queries from source. A
// source absent from every relation routes to slot 0: it binds as a
// virtual isolated node, and an isolated node's answers and stats are
// identical on every shard. A one-slot artifact has no router, so
// everything routes to slot 0.
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
func (sc *ShardedCompiled) ShardOf(source string) int {
	return sc.slotOf(&sc.routeL, source)
}

// slotOf routes one symbol of either domain.
func (sc *ShardedCompiled) slotOf(route *symTable, name string) int {
	if slot, ok := route.lookup(name); ok {
		return int(sc.redirect[slot])
	}
	return 0
}

// facts enumerates the given slots' facts, in slot order.
func (sc *ShardedCompiled) facts(slots []int) (l, e, r []Pair) {
	for _, i := range slots {
		l, e, r = sc.shards[i].comp.appendFacts(l, e, r)
	}
	return l, e, r
}

// Solve answers ?- P(source, Y) on the source's shard. Answers and
// Stats are byte-identical to solving the monolithic Compiled: the
// evaluation can only touch source's weak component, which the shard
// contains whole.
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
func (sc *ShardedCompiled) Solve(source string, strategy Strategy, mode Mode, opts Options) (*Result, error) {
	return sc.shards[sc.ShardOf(source)].comp.Solve(source, strategy, mode, opts)
}

// ChooseMethod picks a method for one source per its shard's magic
// graph. The selection depends only on what the source reaches, which
// its shard holds whole, so it matches the monolithic artifact's; and
// the classifier's work and storage are confined to that region too —
// linear in the reached nodes and arcs, plus the index enumeration on
// the multiple region.
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
func (sc *ShardedCompiled) ChooseMethod(source string) Selection {
	return sc.shards[sc.ShardOf(source)].comp.ChooseMethod(source)
}

// SolveAuto evaluates one source with the method ChooseMethod selects.
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
func (sc *ShardedCompiled) SolveAuto(source string, opts Options) (*Result, Selection, error) {
	return sc.shards[sc.ShardOf(source)].comp.SolveAuto(source, opts)
}

// liveSlots returns the slots that still own a shard (ascending):
// slot i is live while redirect[i] == i, and loses that the moment a
// merge absorbs it.
func (sc *ShardedCompiled) liveSlots() []int {
	out := make([]int, 0, len(sc.shards))
	for i, r := range sc.redirect {
		if int(r) == i {
			out = append(out, i)
		}
	}
	return out
}

// ShardArtifact returns slot i's compiled artifact (nil only for a
// vacated slot's placeholder before any query, which callers never
// route to).
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
func (sc *ShardedCompiled) ShardArtifact(i int) *Compiled { return sc.shards[i].comp }

// SetShardArtifact swaps slot i's artifact for c, which must compile
// the same facts (typically ShardArtifact(i).Flatten()). Only safe
// before the ShardedCompiled is published: afterwards it is shared
// read-only.
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it.
func (sc *ShardedCompiled) SetShardArtifact(i int, c *Compiled) {
	sh := *sc.shards[i]
	sh.comp = c
	sc.shards[i] = &sh
}

// Extend returns a new sharded artifact covering the parent's facts
// plus the delta, touching only the shards the delta reaches. The
// parent is not modified and stays fully usable.
//
// The delta is grouped by connectivity: a union-find over (live
// shards + fresh symbols) joins each pair's endpoints, so every group
// lands whole in one shard and the partition invariant (no fact's
// endpoints ever split across shards) is preserved. Per group:
//
//   - one live shard touched: the shard's artifact rolls forward with
//     Compiled.Extend, at a cost of O(delta) plus the pages the delta
//     touches, whatever share of the shard the delta is;
//   - several live shards touched (the delta bridges regions): the
//     members merge into the lowest slot — it takes over the largest
//     member's artifact, which a delta Extend rolls forward by the
//     other members' facts plus the group's delta, and the vacated
//     slots redirect to the survivor;
//   - no live shard touched (an entirely fresh region): the group
//     joins the live shard currently holding the fewest facts.
//
// Everything one delta sends to a slot — the group extending it in
// place and the fresh regions placed on it — is rolled together, so an
// append rolls each slot once (a bulk load does not roll it once per
// region), after any merge.
//
// Generation follows the Compiled convention: copied from the parent,
// restamped by the caller.
//
// Deprecated: kept only for the end-to-end benchmark's shadow tracer;
// ROADMAP item 1's [benchmark] half deletes it. The fourth parameter
// is ignored.
func (sc *ShardedCompiled) Extend(dL, dE, dR []Pair, _ float64) (*ShardedCompiled, ShardExtendStats) {
	child := &ShardedCompiled{
		Generation: sc.Generation,
		shards:     append([]*shard(nil), sc.shards...),
		routeL:     sc.routeL,
		routeR:     sc.routeR,
		redirect:   append([]int32(nil), sc.redirect...),
	}
	var stats ShardExtendStats
	if len(dL)+len(dE)+len(dR) == 0 {
		return child, stats
	}
	if len(child.shards) == 1 {
		// One slot: no grouping, no routing, the delta goes straight in.
		child.extendShard(0, dL, dE, dR, &stats)
		stats.Touched = []int{0}
		return child, stats
	}

	// Union-find over live slots (nodes 0..K-1; only live ones are ever
	// resolved to) plus one node per fresh symbol, allocated on demand.
	k := len(child.shards)
	uf := graph.NewUnionFind(k + 2*(len(dL)+len(dE)+len(dR)))
	nextNode := k
	freshL := make(map[string]int)
	freshR := make(map[string]int)
	var freshLOrder, freshROrder []string
	resolveL := func(name string) int {
		if slot, ok := child.routeL.lookup(name); ok {
			return int(child.redirect[slot])
		}
		if n, ok := freshL[name]; ok {
			return n
		}
		n := nextNode
		nextNode++
		freshL[name] = n
		freshLOrder = append(freshLOrder, name)
		return n
	}
	resolveR := func(name string) int {
		if slot, ok := child.routeR.lookup(name); ok {
			return int(child.redirect[slot])
		}
		if n, ok := freshR[name]; ok {
			return n
		}
		n := nextNode
		nextNode++
		freshR[name] = n
		freshROrder = append(freshROrder, name)
		return n
	}
	for _, p := range dL {
		uf.Union(resolveL(p.From), resolveL(p.To))
	}
	for _, p := range dE {
		uf.Union(resolveL(p.From), resolveR(p.To))
	}
	for _, p := range dR {
		uf.Union(resolveR(p.From), resolveR(p.To))
	}

	// Partition the delta by group, groups ordered by first occurrence
	// in the delta (deterministic in the input).
	type group struct {
		dl, de, dr []Pair
		freshL     []string
		freshR     []string
	}
	groups := make(map[int]*group)
	var groupOrder []int
	groupFor := func(node int) *group {
		root := uf.Find(node)
		gp, ok := groups[root]
		if !ok {
			gp = &group{}
			groups[root] = gp
			groupOrder = append(groupOrder, root)
		}
		return gp
	}
	for _, p := range dL {
		gp := groupFor(resolveL(p.From))
		gp.dl = append(gp.dl, p)
	}
	for _, p := range dE {
		gp := groupFor(resolveL(p.From))
		gp.de = append(gp.de, p)
	}
	for _, p := range dR {
		gp := groupFor(resolveR(p.From))
		gp.dr = append(gp.dr, p)
	}
	for _, name := range freshLOrder {
		groupFor(freshL[name]).freshL = append(groupFor(freshL[name]).freshL, name)
	}
	for _, name := range freshROrder {
		groupFor(freshR[name]).freshR = append(groupFor(freshR[name]).freshR, name)
	}
	// Live member slots per group root, ascending by construction.
	members := make(map[int][]int)
	for i := 0; i < k; i++ {
		if int(child.redirect[i]) != i {
			continue
		}
		root := uf.Find(i)
		if _, ok := groups[root]; ok {
			members[root] = append(members[root], i)
		}
	}

	// Each slot's share of the delta — the group extending it in place
	// and every fresh region placed on it — is gathered here and rolled
	// once after the loop, so one append deepens a shard's chain by at
	// most one link.
	pending := make([]*group, k)
	queue := func(slot int, gp *group) {
		f := pending[slot]
		if f == nil {
			f = &group{}
			pending[slot] = f
		}
		f.dl, f.de, f.dr = append(f.dl, gp.dl...), append(f.de, gp.de...), append(f.dr, gp.dr...)
	}
	load := func(slot int) int {
		n := child.shards[slot].nfacts
		if f := pending[slot]; f != nil {
			n += len(f.dl) + len(f.de) + len(f.dr)
		}
		return n
	}
	touched := make(map[int]bool)
	for _, root := range groupOrder {
		gp := groups[root]
		live := members[root]
		var target int
		switch {
		case len(live) == 0:
			// An entirely fresh region: join the lightest live shard.
			target = -1
			for _, i := range child.liveSlots() {
				if target < 0 || load(i) < load(target) {
					target = i
				}
			}
			queue(target, gp)
		case len(live) == 1:
			target = live[0]
			queue(target, gp)
		default:
			// Bridging delta: merge every member into the lowest slot.
			// The slot takes over the largest member's artifact, and the
			// other members' facts join the group's delta, so the merge
			// rolls forward by what the smaller members hold instead of
			// recompiling the union.
			target = live[0]
			big := target
			for _, m := range live[1:] {
				if child.shards[m].nfacts > child.shards[big].nfacts {
					big = m
				}
			}
			var rest []int
			for _, m := range live {
				if m != big {
					rest = append(rest, m)
				}
			}
			ml, me, mr := child.facts(rest)
			child.shards[target] = child.shards[big]
			queue(target, &group{dl: ml, de: me, dr: mr})
			queue(target, gp)
			for _, m := range live[1:] {
				child.shards[m] = newShard(Compile(nil, nil, nil))
				// Re-point every slot that resolved to m (m itself plus
				// any slot a previous merge had already folded into it).
				for s, r := range child.redirect {
					if int(r) == m {
						child.redirect[s] = int32(target)
					}
				}
				// Fresh regions already placed on m follow it.
				if f := pending[m]; f != nil {
					queue(target, f)
					pending[m] = nil
				}
			}
			stats.Merges += len(live) - 1
		}
		// Route the group's fresh symbols to their slot.
		for _, name := range gp.freshL {
			child.routeL.add(&sc.routeL, name, int32(target))
		}
		for _, name := range gp.freshR {
			child.routeR.add(&sc.routeR, name, int32(target))
		}
	}
	for slot, f := range pending {
		if f != nil {
			child.extendShard(slot, f.dl, f.de, f.dr, &stats)
			touched[slot] = true
		}
	}

	for i := range touched {
		stats.Touched = append(stats.Touched, i)
	}
	sort.Ints(stats.Touched)
	return child, stats
}

// extendShard rolls one slot forward by its share of the delta with a
// delta Extend. A share that absorbs merged shards costs what the
// smaller members hold, since the slot holds the largest.
func (sc *ShardedCompiled) extendShard(slot int, dl, de, dr []Pair, stats *ShardExtendStats) {
	sc.shards[slot] = newShard(sc.shards[slot].comp.Extend(dl, de, dr))
	stats.DeltaExtended++
}
