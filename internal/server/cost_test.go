package server

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
	"magiccounting/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/costs.golden from this run")

const costsGolden = "testdata/costs.golden"

// cost is one path's measured cost per call.
type cost struct {
	allocs, bytes, retrievals int64
}

// band is how far a measurement may stray from its golden figure:
// allocs by a count, bytes by a fraction. Retrievals have no band.
type band struct {
	allocs int64
	bytes  float64
}

// tight is the band of every path that documents no wider one. Its
// allocations are exact: AllocsPerRun's per-call figure repeats to the
// allocation on those paths, and one more allocation per call is what
// the gate is for.
var tight = band{allocs: 0, bytes: 0.10}

// filesystem is the band of the paths that write or read a data
// directory: their per-call figure moves by one between processes.
var filesystem = band{allocs: 1, bytes: 0.10}

// costPath is one measured path. build sets up its fixture and returns
// the operation to measure and the service whose retrieval counter the
// operation charges (nil when it solves nothing). The operation runs
// runs+1 times: once to warm up, then runs times measured.
type costPath struct {
	name  string
	runs  int
	band  band
	build func(t *testing.T) (op func(), svc *Service)
}

// goMinor is the running toolchain's minor version ("go1.24"), the
// first line of the golden file: allocation figures are only compared
// on the toolchain that recorded them.
func goMinor() string {
	v := runtime.Version()
	if parts := strings.SplitN(v, ".", 3); len(parts) >= 2 && strings.HasPrefix(v, "go") {
		return parts[0] + "." + parts[1]
	}
	return v
}

// TestCostBudgets pins what each serving path costs per call: heap
// allocations (testing.AllocsPerRun), bytes allocated and tuple
// retrievals, against testdata/costs.golden. Retrievals are exact by
// construction and always compared. Allocations and bytes are compared
// within each line's band, and only on the Go minor version the file
// records and without -race, which instruments allocation. The
// fixtures are fixed and seeded, and each path's calls are alike, so a
// call's retrievals are the same on every call. After an intended
// change, `go test ./internal/server/ -run TestCostBudgets -update`
// rewrites the file, and its diff is the change's cost claim.
func TestCostBudgets(t *testing.T) {
	paths := costPaths()
	got := make(map[string]cost, len(paths))
	for _, p := range paths {
		op, svc := p.build(t)
		got[p.name] = measure(t, p, op, svc)
	}

	if *update {
		if raceEnabled {
			t.Fatal("-update records allocations, which -race instruments: rerun without -race")
		}
		writeCostsGolden(t, paths, got)
		return
	}
	version, want, bands := readCostsGolden(t)
	compareAllocs := true
	switch {
	case raceEnabled:
		compareAllocs = false
		t.Log("race detector on: comparing retrievals only, since it instruments allocation")
	case version != goMinor():
		compareAllocs = false
		t.Logf("golden recorded on %s, running %s: comparing retrievals only", version, goMinor())
	}
	for _, p := range paths {
		g, w := got[p.name], want[p.name]
		if _, ok := want[p.name]; !ok {
			t.Errorf("%s: no golden line (run with -update)", p.name)
			continue
		}
		if g.retrievals != w.retrievals {
			t.Errorf("%s: %d retrievals/op, golden %d", p.name, g.retrievals, w.retrievals)
		}
		if !compareAllocs {
			continue
		}
		b := bands[p.name]
		if d := g.allocs - w.allocs; d > b.allocs || -d > b.allocs {
			t.Errorf("%s: %d allocs/op, golden %d±%d", p.name, g.allocs, w.allocs, b.allocs)
		}
		if math.Abs(float64(g.bytes-w.bytes)) > b.bytes*float64(w.bytes) {
			t.Errorf("%s: %d bytes/op, golden %d±%.0f%%", p.name, g.bytes, w.bytes, 100*b.bytes)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden line %s names no path (run with -update)", name)
		}
	}
}

// measure runs op through testing.AllocsPerRun and reports its
// allocations per measured call, and its bytes and retrievals per call
// over every call, the warm-up included.
func measure(t *testing.T, p costPath, op func(), svc *Service) cost {
	t.Helper()
	retrieved := func() int64 {
		if svc == nil {
			return 0
		}
		return svc.retrievals.Load()
	}
	runs := p.runs
	if raceEnabled {
		// Only retrievals are compared, and every call retrieves alike.
		runs = min(runs, 3)
	}
	var before, after runtime.MemStats
	r0 := retrieved()
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, op)
	runtime.ReadMemStats(&after)
	calls := int64(runs + 1)
	total := retrieved() - r0
	if total%calls != 0 {
		t.Fatalf("%s: %d retrievals over %d calls: the calls are not alike", p.name, total, calls)
	}
	c := cost{allocs: int64(allocs), bytes: int64(after.TotalAlloc-before.TotalAlloc) / calls, retrievals: total / calls}
	t.Logf("%-52s %6d allocs/op %9d B/op %7d retrievals/op", p.name, c.allocs, c.bytes, c.retrievals)
	return c
}

func writeCostsGolden(t *testing.T, paths []costPath, got map[string]cost) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, goMinor())
	for _, p := range paths {
		c, b := got[p.name], p.band
		if b == (band{}) {
			b = tight
		}
		fmt.Fprintf(&buf, "%-52s allocs/op=%d±%d bytes/op=%d±%.0f%% retrievals/op=%d\n",
			p.name, c.allocs, b.allocs, c.bytes, 100*b.bytes, c.retrievals)
	}
	if err := os.MkdirAll(filepath.Dir(costsGolden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(costsGolden, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readCostsGolden parses the golden file: the Go minor version on the
// first line, then one line per path of the form
// "name allocs/op=N±B bytes/op=N±P% retrievals/op=N".
func readCostsGolden(t *testing.T) (string, map[string]cost, map[string]band) {
	t.Helper()
	data, err := os.ReadFile(costsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	if !sc.Scan() {
		t.Fatalf("%s is empty", costsGolden)
	}
	version := strings.TrimSpace(sc.Text())
	want, bands := map[string]cost{}, map[string]band{}
	for line := 2; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) != 4 {
			t.Fatalf("%s:%d: want a name and three figures, got %q", costsGolden, line, sc.Text())
		}
		var c cost
		var b band
		var errs [3]error
		c.allocs, b.allocs, errs[0] = parseFigure(f[1], "allocs/op=", "")
		var pct int64
		c.bytes, pct, errs[1] = parseFigure(f[2], "bytes/op=", "%")
		b.bytes = float64(pct) / 100
		c.retrievals, errs[2] = strconv.ParseInt(strings.TrimPrefix(f[3], "retrievals/op="), 10, 64)
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s:%d: %v", costsGolden, line, err)
			}
		}
		want[f[0]], bands[f[0]] = c, b
	}
	return version, want, bands
}

// parseFigure reads "key=N±B" followed by unit.
func parseFigure(field, key, unit string) (n, b int64, err error) {
	v, ok := strings.CutPrefix(field, key)
	num, tol, ok2 := strings.Cut(strings.TrimSuffix(v, unit), "±")
	if !ok || !ok2 {
		return 0, 0, fmt.Errorf("%q: want %sN±B%s", field, key, unit)
	}
	if n, err = strconv.ParseInt(num, 10, 64); err == nil {
		b, err = strconv.ParseInt(tol, 10, 64)
	}
	return n, b, err
}

// forest is a same-generation database over a random forest of n
// nodes: node i's parent is a uniformly drawn earlier node.
func forest(n int, seed int64) core.Query {
	rng := rand.New(rand.NewSource(seed))
	parent := make([]core.Pair, 0, n-1)
	for i := 1; i < n; i++ {
		parent = append(parent, core.P(fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", rng.Intn(i))))
	}
	return core.SameGeneration(parent, "v0")
}

// link is append i onto forest(n): one fresh node climbing above an
// existing one, the shape of a served 1-link append.
func link(i, n int) FactsRequest {
	old, fresh := fmt.Sprintf("v%d", (i*7919)%n), fmt.Sprintf("fresh%d", i)
	return FactsRequest{L: []core.Pair{core.P(old, fresh)}, E: []core.Pair{core.P(fresh, fresh)}, R: []core.Pair{core.P(old, fresh)}}
}

// renamed is q with every constant prefixed, so copies of one instance
// load side by side as disjoint, identical regions.
func renamed(q core.Query, prefix string) core.Query {
	ren := func(ps []core.Pair) []core.Pair {
		out := make([]core.Pair, len(ps))
		for i, p := range ps {
			out[i] = core.P(prefix+p.From, prefix+p.To)
		}
		return out
	}
	return core.Query{L: ren(q.L), E: ren(q.E), R: ren(q.R), Source: prefix + q.Source}
}

// loaded is a service holding the queries' facts.
func loaded(t *testing.T, cfg Config, qs ...core.Query) *Service {
	t.Helper()
	svc := New(cfg)
	for _, q := range qs {
		mustAppend(t, svc, FactsRequest{L: q.L, E: q.E, R: q.R})
	}
	return svc
}

// durableLoaded is a durable service in dir holding the queries'
// facts, committed as one append, with fsync off: an fsync costs time,
// not allocations.
func durableLoaded(t *testing.T, dir string, qs ...core.Query) *Service {
	t.Helper()
	svc := New(Config{Fsync: durable.FsyncNever})
	if _, err := svc.Open(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.dur.Close() })
	var facts []FactsRequest
	for _, q := range qs {
		facts = append(facts, FactsRequest{L: q.L, E: q.E, R: q.R})
	}
	mustAppend(t, svc, mergeFacts(facts...))
	return svc
}

// hotTree is workload.Tree(2, depth) with its arcs turned toward the
// root, the shape of the benchmark's read-hot trees: a query from a
// node at depth d climbs to the root and answers every node at depth d.
func hotTree(depth int) core.Query {
	q := workload.Tree(2, depth)
	up := make([]core.Pair, len(q.L))
	for i, p := range q.L {
		up[i] = core.P(p.To, p.From)
	}
	return core.SameGeneration(up, "t0")
}

// generation returns n nodes of hotTree at depth d: heap-numbered,
// their ancestries are alike, so each costs the same to query.
func generation(d, n int) []string {
	first := 1<<d - 1
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", first+i)
	}
	return out
}

// post builds an op that POSTs bodies[i mod len] to h at path and
// fails unless the response is 200 and reports cached as want.
func post(t *testing.T, h http.Handler, path string, bodies [][]byte, cached bool) func() {
	want := []byte(fmt.Sprintf(`"cached": %v`, cached))
	i := 0
	return func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i%len(bodies)])))
		i++
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), want) {
			t.Fatalf("POST %s: %d %s, want 200 with %s", path, w.Code, w.Body.Bytes(), want)
		}
	}
}

// query builds an op that sends reqs[i mod len] and fails unless the
// answer's Cached is want.
func query(t *testing.T, svc *Service, reqs []QueryRequest, cached bool) func() {
	ctx := context.Background()
	i := 0
	return func() {
		resp, err := svc.Query(ctx, reqs[i%len(reqs)])
		i++
		if err != nil || resp.Cached != cached {
			t.Fatalf("query: %v (cached %v, want %v)", err, resp != nil && resp.Cached, cached)
		}
	}
}

// costPaths lists the measured paths in golden-file order.
func costPaths() []costPath {
	paths := []costPath{
		{name: "handler/hit", runs: 200, build: func(t *testing.T) (func(), *Service) {
			svc := loaded(t, Config{}, hotTree(9))
			body := [][]byte{[]byte(`{"source":"t511"}`)}
			h := NewHandler(svc)
			post(t, h, "/v1/query", body, false)()
			return post(t, h, "/v1/query", body, true), svc
		}},
		{name: "handler/miss", runs: 200, build: func(t *testing.T) (func(), *Service) {
			svc := loaded(t, Config{CacheCap: 1}, hotTree(9))
			var bodies [][]byte
			for _, s := range generation(9, 8) {
				bodies = append(bodies, []byte(`{"source":"`+s+`"}`))
			}
			return post(t, NewHandler(svc), "/v1/query", bodies, false), svc
		}},
	}
	for _, kind := range []workload.RegimeKind{workload.KindRegular, workload.KindCyclicRegular, workload.KindMultiple, workload.KindRecurring} {
		for _, m := range []struct{ name, strategy, mode string }{{"auto", "", ""}, {"recurring-integrated", "recurring", "integrated"}} {
			paths = append(paths, costPath{name: "service/miss/" + kind.String() + "/" + m.name, runs: 199,
				build: func(t *testing.T) (func(), *Service) {
					q := workload.RandomRegime(kind, 1, 8)
					a, b := renamed(q, "a."), renamed(q, "b.")
					svc := loaded(t, Config{CacheCap: 1}, a, b)
					reqs := []QueryRequest{{Source: a.Source, Strategy: m.strategy, Mode: m.mode}, {Source: b.Source, Strategy: m.strategy, Mode: m.mode}}
					return query(t, svc, reqs, false), svc
				}})
		}
	}
	paths = append(paths,
		costPath{name: "service/batch-miss", runs: 99, build: func(t *testing.T) (func(), *Service) {
			svc := loaded(t, Config{CacheCap: 1, Workers: 2}, hotTree(9))
			sources := generation(9, 32)
			reqs := []BatchRequest{{Sources: sources[:16]}, {Sources: sources[16:]}}
			ctx := context.Background()
			i := 0
			return func() {
				resp, err := svc.QueryBatch(ctx, reqs[i%2])
				i++
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range resp.Items {
					if it.Cached || it.Error != "" {
						t.Fatalf("batch item %+v, want a miss", it)
					}
				}
			}, svc
		}},
		costPath{name: "append/1-link", runs: 63, build: func(t *testing.T) (func(), *Service) {
			const n = 10_000
			svc := durableLoaded(t, t.TempDir(), forest(n, 1))
			i := 0
			return func() {
				mustAppend(t, svc, link(i, n))
				i++
			}, svc
		}},
		costPath{name: "append/bridging", runs: 63, build: func(t *testing.T) (func(), *Service) {
			// 128 disjoint trees; append i joins trees 2i and 2i+1 under
			// one fresh common parent, merging two weak components.
			var trees []core.Query
			for k := 0; k < 128; k++ {
				trees = append(trees, renamed(workload.Tree(3, 4), fmt.Sprintf("r%d.", k)))
			}
			svc := durableLoaded(t, t.TempDir(), trees...)
			i := 0
			return func() {
				bridge := fmt.Sprintf("bridge%d", i)
				mustAppend(t, svc, FactsRequest{Parent: []core.Pair{
					core.P(trees[2*i].Source, bridge), core.P(trees[2*i+1].Source, bridge),
				}})
				i++
			}, svc
		}},
	)
	for _, n := range []int{10_000, 100_000} {
		paths = append(paths, costPath{name: fmt.Sprintf("extend/chain-%dk", n/1000), runs: n/8 - 1,
			build: func(t *testing.T) (func(), *Service) {
				q := forest(n, 1)
				c := core.Compile(q.L, q.E, q.R)
				deltas := make([]FactsRequest, n/8)
				for i := range deltas {
					deltas[i] = link(i, n)
				}
				i := 0
				return func() {
					c = c.Extend(deltas[i].L, deltas[i].E, deltas[i].R)
					i++
				}, nil
			}})
	}
	paths = append(paths,
		costPath{name: "durable/checkpoint", runs: 4, band: filesystem, build: func(t *testing.T) (func(), *Service) {
			// One service per call (runs+1), each with an unsnapshotted
			// generation.
			q := forest(10_000, 1)
			svcs := make([]*Service, 5)
			for i := range svcs {
				svcs[i] = durableLoaded(t, t.TempDir(), q)
			}
			i := 0
			return func() {
				if err := svcs[i].Checkpoint(); err != nil {
					t.Fatal(err)
				}
				i++
			}, nil
		}},
		costPath{name: "durable/open", runs: 9, band: filesystem, build: func(t *testing.T) (func(), *Service) {
			// A snapshot of forest(10k) plus a WAL tail of 64 1-link
			// appends; each call opens a fresh service on it.
			const n = 10_000
			dir := t.TempDir()
			svc := durableLoaded(t, dir, forest(n, 1))
			if err := svc.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				mustAppend(t, svc, link(i, n))
			}
			svc.dur.Close()
			return func() {
				s := New(Config{Fsync: durable.FsyncNever})
				info, err := s.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !info.SnapshotLoaded || info.ReplayedRecords != 64 {
					t.Fatalf("open: snapshot %v, %d records replayed, want a snapshot and 64", info.SnapshotLoaded, info.ReplayedRecords)
				}
				s.dur.Close()
			}, nil
		}},
	)
	return paths
}
