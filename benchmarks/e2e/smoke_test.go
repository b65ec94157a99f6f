package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// applies says on which workloads a metric outside the universal sets
// must appear (and, implicitly, where it must not).
var applies = map[string][]string{
	"batch_p50_ms":                 {"read-cold", "mixed-sharded"},
	"append_ack_p50_ms":            {"append-durable", "mixed-sharded"},
	"append_ack_p99_ms":            {"append-durable", "mixed-sharded"},
	"append_visible_p50_ms":        {"append-durable", "mixed-sharded"},
	"failed_frac":                  {"read-hot", "read-cold", "append-durable", "mixed-sharded"},
	"server.service.hit_us":        {"read-hot", "mixed-sharded"},
	"server.service.batch_item_us": {"read-cold", "mixed-sharded"},
	"core.delta.extend_us":         {"append-durable"},
	"core.delta.bytes_per_extend":  {"append-durable"},
	"core.flatten.flatten_ms":      {"append-durable"},
	"core.shard.compile_ms":        {"mixed-sharded"},
	"core.shard.route_ns":          {"mixed-sharded"},
	"core.shard.extend_us":         {"mixed-sharded"},
	"core.shard.merge_ms":          {"mixed-sharded"},
	"trace.overhead_frac":          {"read-hot", "read-cold", "append-durable", "mixed-sharded"},
}

func checkMetrics(t *testing.T, where, workload string, got map[string]metric, universal, other []metricDef) {
	t.Helper()
	for _, d := range universal {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: %s is missing", where, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, want %q", where, d.Name, m.Unit, d.Unit)
		}
	}
	for _, d := range other {
		want := false
		for _, w := range applies[d.Name] {
			want = want || w == workload
		}
		m, ok := got[d.Name]
		switch {
		case want && !ok:
			t.Errorf("%s: %s is missing", where, d.Name)
		case ok && m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", where, d.Name, m.Unit, d.Unit)
		case !want && ok && d.Name != "server.service.hit_us" && d.Name != "core.flatten.flatten_ms":
			// A uniform draw may repeat a source, and a small shard may
			// reach the collapse depth: those two can occur anywhere.
			t.Errorf("%s: %s reported on a workload without that op class", where, d.Name)
		}
	}
}

// spanLevel orders the layers: a span's parent is always further out.
func spanLevel(name string) int {
	switch {
	case name == "client.roundtrip":
		return 0
	case name == "server.http":
		return 1
	case name == "server.service":
		return 2
	case name == "core.solve.step1", name == "core.solve.step2", name == "durable.wal.fsync":
		return 4
	default:
		return 3
	}
}

func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: empty span file", workload)
		return
	}
	own := map[string]int64{}      // layer -> total duration
	children := map[string]int64{} // layer -> total duration of its direct children
	for i, s := range spans {
		if s.ID != i || s.End < s.Start {
			t.Fatalf("%s: span %d is malformed: %+v", workload, i, s)
		}
		own[s.Name] += s.End - s.Start
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			t.Fatalf("%s: span %d names a later parent %d", workload, i, s.Parent)
		}
		p := spans[s.Parent]
		if p.Op != s.Op || spanLevel(p.Name) >= spanLevel(s.Name) {
			t.Errorf("%s: span %d (%s, op %d) hangs under %s of op %d", workload, i, s.Name, s.Op, p.Name, p.Op)
		}
		children[p.Name] += s.End - s.Start
	}
	// Per op a child measured on another instance can outlast its
	// parent (trace.negative_self_frac counts those); summed over a
	// layer the children must fit, with room for this tiny run's noise.
	for layer, c := range children {
		if float64(c) > 1.5*float64(own[layer]) {
			t.Errorf("%s: the children of %s sum to %d ns, the spans themselves to %d ns", workload, layer, c, own[layer])
		}
	}
}

func checkDriverLine(t *testing.T, stdout string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result object has keys %v", keys)
	}
	if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
		t.Errorf("correct=%s failed=%s", line["correct"], line["failed"])
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("result carries %d metrics, BENCHMARK.json lists %d for this pass", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("result metric %s: %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
	}
}

// TestSmoke runs all four workloads through both passes at a tiny
// scale, then the two single-run forms the driver uses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mcserved and spawns, kills and restarts it")
	}
	dir := t.TempDir()
	work, out := filepath.Join(dir, "work"), filepath.Join(dir, "out")
	common := []string{"-seed", "2", "-scale", "0.03", "-seconds", "0.5", "-workdir", work, "-out", out}
	var stdout, stderr bytes.Buffer
	if code := run(common, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	files, err := filepath.Glob(filepath.Join(out, "2*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("results files: %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU == 0 || rep.Env.DataDirFS == "" || rep.Env.Kernel == "" || rep.Env.CPUModel == "" {
		t.Errorf("incomplete environment fingerprint: %+v", rep.Env)
	}
	if len(rep.EndToEnd) != len(workloads) || len(rep.Traced) != len(workloads) {
		t.Fatalf("%d end-to-end and %d traced results for %d workloads", len(rep.EndToEnd), len(rep.Traced), len(workloads))
	}
	for i, w := range workloads {
		e2e, tr := rep.EndToEnd[i], rep.Traced[i]
		if e2e.Workload != w.Name || tr.Workload != w.Name {
			t.Fatalf("result %d is for %s / %s, want %s", i, e2e.Workload, tr.Workload, w.Name)
		}
		// Correct covers the oracle sample before and after kill -9 and
		// the recovered generation; the error list says which failed.
		if !e2e.Correct || e2e.Failed != 0 || len(e2e.Errors) != 0 || e2e.Metrics["failed_frac"].Value != 0 {
			t.Errorf("%s end to end: correct=%v failed=%d errors=%v", w.Name, e2e.Correct, e2e.Failed, e2e.Errors)
		}
		if !tr.Correct || tr.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d errors=%v", w.Name, tr.Correct, tr.Failed, tr.Errors)
		}
		checkMetrics(t, w.Name+" end to end", w.Name, e2e.Metrics, driverEndToEnd, otherEndToEnd)
		checkMetrics(t, w.Name+" traced", w.Name, tr.Metrics, driverPerLayer, otherPerLayer)
		for name, m := range e2e.Metrics {
			if name != "failed_frac" && m.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.Name, name, m.Value)
			}
		}

		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatal(err)
		}
		checkSpans(t, w.Name, spans)
	}

	stdout.Reset()
	if code := run(append([]string{"-workload", "read-hot", "-trace", "0"}, common...), &stdout, &stderr); code != 0 {
		t.Fatalf("single end-to-end run: exit code %d\n%s", code, stderr.String())
	}
	checkDriverLine(t, stdout.String(), driverEndToEnd)
	stdout.Reset()
	if code := run(append([]string{"-workload", "mixed-sharded", "-trace", "1"}, common...), &stdout, &stderr); code != 0 {
		t.Fatalf("single traced run: exit code %d\n%s", code, stderr.String())
	}
	checkDriverLine(t, stdout.String(), driverPerLayer)
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this
// package saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the generator has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the generator %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the tables %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the tables %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the tables", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, driverEndToEnd, true)
	same("per_layer", b.PerLayer, driverPerLayer, false)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmarks"}) {
		t.Errorf("paths = %v", b.Paths)
	}
}
