package main

// Correctness: sampled answers against internal/oracle. The oracle
// runs over the facts of the source's region only, which is all a
// query can reach (Fact-2 confinement), so the check stays cheap on a
// 110k-fact database.

import (
	"fmt"
	"math/rand"
	"sort"

	"magiccounting/internal/core"
	"magiccounting/internal/oracle"
)

// sampleSize is the number of sources verified per workload.
const sampleSize = 200

// ledger is the harness's own record of the database, region by
// region: the generated forest plus every acknowledged append.
type ledger struct {
	regOf    map[string]int
	redirect []int // merged regions point at their survivor
	pairs    [][]core.Pair
}

func newLedger(f *forest) *ledger {
	lg := &ledger{regOf: make(map[string]int, len(f.nodes))}
	for id, r := range f.regions {
		lg.redirect = append(lg.redirect, id)
		// Capacity-clamped: appends must never write into the forest.
		lg.pairs = append(lg.pairs, r.pairs[:len(r.pairs):len(r.pairs)])
		for _, n := range r.nodes {
			lg.regOf[n] = id
		}
	}
	return lg
}

func (lg *ledger) find(node string) (int, bool) {
	id, ok := lg.regOf[node]
	if !ok {
		return 0, false
	}
	for lg.redirect[id] != id {
		id = lg.redirect[id]
	}
	return id, true
}

// add records acknowledged parent pairs: a pair joins the region of
// whichever endpoint is known, starts a region when neither is, and
// merges two regions when it bridges them.
func (lg *ledger) add(parent []core.Pair) {
	for _, p := range parent {
		from, okFrom := lg.find(p.From)
		to, okTo := lg.find(p.To)
		switch {
		case okFrom && okTo && from != to:
			lg.pairs[from] = append(lg.pairs[from], lg.pairs[to]...)
			lg.pairs[to] = nil
			lg.redirect[to] = from
		case !okFrom && !okTo:
			from = len(lg.pairs)
			lg.pairs = append(lg.pairs, nil)
			lg.redirect = append(lg.redirect, from)
		case !okFrom:
			from = to
		}
		lg.regOf[p.From], lg.regOf[p.To] = from, from
		lg.pairs[from] = append(lg.pairs[from], p)
	}
}

// expected computes the oracle's answers for every sampled source,
// one fixpoint per distinct region.
func (lg *ledger) expected(sample []string) (map[string][]string, error) {
	byRegion := make(map[int][]string)
	for _, s := range sample {
		id, ok := lg.find(s)
		if !ok {
			return nil, fmt.Errorf("sampled source %q is in no region", s)
		}
		byRegion[id] = append(byRegion[id], s)
	}
	out := make(map[string][]string, len(sample))
	for id, sources := range byRegion {
		arcs := make([]oracle.Arc, 0, len(lg.pairs[id]))
		var ident []oracle.Arc
		seen := make(map[string]bool)
		for _, p := range lg.pairs[id] {
			arcs = append(arcs, oracle.Arc{From: p.From, To: p.To})
			for _, n := range [2]string{p.From, p.To} {
				if !seen[n] {
					seen[n] = true
					ident = append(ident, oracle.Arc{From: n, To: n})
				}
			}
		}
		solve := oracle.Solver(arcs, ident, arcs)
		for _, s := range sources {
			out[s] = solve(s)
		}
	}
	return out, nil
}

// pickSample draws the verified sources: the workload's own query
// population, the deepest nodes of regions 0 and 1 (which the
// bridging append joins), and up to a quarter appended nodes.
func pickSample(in *instance, appended []string) []string {
	rng := rand.New(rand.NewSource(in.seed<<8 | 4))
	pop := in.db.nodes
	if in.w.Hot {
		pop = in.hot
	}
	var sample []string
	if !in.w.Hot {
		for _, r := range in.db.regions[:2] {
			sample = append(sample, r.nodes[len(r.nodes)-1])
		}
	}
	if n := len(appended); n > 0 {
		for _, i := range rng.Perm(n)[:min(n, sampleSize/4)] {
			sample = append(sample, appended[i])
		}
	}
	for _, i := range rng.Perm(len(pop))[:min(len(pop), sampleSize-len(sample))] {
		sample = append(sample, pop[i])
	}
	return sample
}

// sameAnswers compares a response's answers to the oracle's, both as
// sets (the oracle's come sorted).
func sameAnswers(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	got = append([]string(nil), got...)
	sort.Strings(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// verifySample queries every sampled source and counts the answers
// that differ from the oracle's or were not given at generation gen.
func verifySample(c *client, sample []string, want map[string][]string, gen uint64) (wrong int, first error) {
	for _, s := range sample {
		resp, err := c.query(s)
		switch {
		case err != nil:
		case resp.Generation != gen:
			err = fmt.Errorf("source %s answered at generation %d, want %d", s, resp.Generation, gen)
		case !sameAnswers(resp.Answers, want[s]):
			err = fmt.Errorf("source %s: %d answers, the oracle has %d", s, len(resp.Answers), len(want[s]))
		}
		if err != nil {
			wrong++
			if first == nil {
				first = err
			}
		}
	}
	return wrong, first
}
