package main

import (
	"bytes"
	"fmt"
	"testing"

	"magiccounting/internal/core"
)

// requestLog renders everything the child of one workload would be
// sent for a seed: the bulk load, the warm-up, and the head of both
// clients' streams.
func requestLog(w *workload, seed int64, ops int) []byte {
	in := newInstance(w, seed, 0.05)
	var b bytes.Buffer
	for _, c := range chunks(in.db.allPairs()) {
		fmt.Fprintf(&b, "POST /v1/facts %s\n", factsBody(c))
	}
	for _, s := range in.warmup() {
		fmt.Fprintf(&b, "POST /v1/query %s\n", s)
	}
	for client := 0; client < numClients; client++ {
		s := in.stream(client)
		for i := 0; i < ops; i++ {
			o := s.next()
			fmt.Fprintf(&b, "%d POST %s %s\n", client, o.path(), o.body())
		}
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := requestLog(w, 7, 400), requestLog(w, 7, 400)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.Name)
		}
		if c := requestLog(w, 8, 400); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", w.Name)
		}
	}
}

// The traced prefix is the two client streams interleaved, so both
// passes replay the same requests.
func TestPrefixInterleavesTheClientStreams(t *testing.T) {
	in := newInstance(workloadByName("mixed-sharded"), 3, 0.05)
	prefix := in.prefix(200)
	clients := []*stream{in.stream(0), in.stream(1)}
	bridges := 0
	for i := range prefix {
		want := clients[i%2].next()
		if !bytes.Equal(prefix[i].body(), want.body()) {
			t.Fatalf("prefix op %d is %s, client %d generates %s", i, prefix[i].body(), i%2, want.body())
		}
		if prefix[i].Kind == opAppend && len(prefix[i].Parent) == 2 && prefix[i].Parent[0].To == prefix[i].Parent[1].To {
			bridges++
		}
	}
	if bridges != 1 {
		t.Errorf("the traced prefix holds %d bridging appends, want exactly 1", bridges)
	}
}

func TestForestShape(t *testing.T) {
	f := mainForest(1, 1)
	if got := f.facts(); got < 100_000 || got > 120_000 {
		t.Errorf("main forest has %d facts, want about 110k", got)
	}
	if len(f.regions) != mainRegions {
		t.Errorf("main forest has %d regions, want %d", len(f.regions), mainRegions)
	}
	// Regions 0 and 1 must be strictly the largest by fact count, the
	// measure CompileSharded packs by: the bridging append relies on
	// them landing on different shards.
	size := func(r *region) int { return 2*len(r.pairs) + len(r.nodes) }
	for id, r := range f.regions[2:] {
		if size(r) >= size(f.regions[0]) || size(r) >= size(f.regions[1]) {
			t.Errorf("region %d (%d facts) is not smaller than regions 0 and 1", id+2, size(r))
		}
	}
	var l, e, r []core.Pair
	seen := map[string]bool{}
	for _, p := range f.allPairs() {
		l, r = append(l, p), append(r, p)
		for _, n := range [2]string{p.From, p.To} {
			if !seen[n] {
				seen[n] = true
				e = append(e, core.P(n, n))
			}
		}
	}
	if len(l)+len(e)+len(r) != f.facts() {
		t.Errorf("expanded forest has %d facts, facts() says %d", len(l)+len(e)+len(r), f.facts())
	}
	sc := core.CompileSharded(l, e, r, core.ShardOpts{Shards: 4})
	if a, b := sc.ShardOf(f.regions[0].nodes[0]), sc.ShardOf(f.regions[1].nodes[0]); a == b {
		t.Errorf("regions 0 and 1 share shard %d: the bridging append would merge nothing", a)
	}
	regimes := map[core.Regime]int{}
	c := core.Compile(l, e, r)
	for _, reg := range f.regions[:30] {
		regimes[c.ChooseMethod(reg.nodes[len(reg.nodes)-1]).Regime]++
	}
	if len(regimes) != 3 {
		t.Errorf("deepest nodes of 30 regions met regimes %v, want all three", regimes)
	}
}

func TestHotAnswersAreAWholeGeneration(t *testing.T) {
	f := hotForest(0.1)
	keys := hotKeys(f, 1)
	if len(keys) != len(f.regions)*hotPerTree {
		t.Fatalf("%d hot keys for %d trees", len(keys), len(f.regions))
	}
	want, err := newLedger(f).expected(keys[:1])
	if err != nil {
		t.Fatal(err)
	}
	if got := len(want[keys[0]]); got != 256 {
		t.Errorf("hot key %s has %d same-generation peers, want 256", keys[0], got)
	}
}

func TestLedgerFollowsAppends(t *testing.T) {
	in := newInstance(workloadByName("mixed-sharded"), 5, 0.05)
	lg := newLedger(in.db)
	a, b := in.db.regions[0].nodes[0], in.db.regions[1].nodes[0]
	lg.add([]core.Pair{core.P("x0", "x1")}) // a fresh region
	lg.add([]core.Pair{core.P(a, "top"), core.P(b, "top")})
	ra, _ := lg.find(a)
	rb, _ := lg.find(b)
	rt, _ := lg.find("top")
	if ra != rb || ra != rt {
		t.Errorf("after the bridge, regions of %s, %s and top are %d, %d, %d", a, b, ra, rb, rt)
	}
	if rx, ok := lg.find("x1"); !ok || rx == ra {
		t.Errorf("fresh region: find(x1) = %d, %v", rx, ok)
	}
	want, err := lg.expected([]string{a, "top", "x1"})
	if err != nil {
		t.Fatal(err)
	}
	// The two roots became siblings under top.
	if got := want[a]; len(got) != 2 {
		t.Errorf("root %s has same-generation peers %v, want itself and %s", a, got, b)
	}
	if got := want["top"]; len(got) != 1 || got[0] != "top" {
		t.Errorf("top answers %v, want exactly itself", got)
	}
}
