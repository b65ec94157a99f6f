package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden.json from this run")

const experimentsGolden = "testdata/experiments.golden.json"

// TestExperimentsGolden pins every rendered cell of the paper's
// experiments (Tables 1–5, Figures 1–3 at DefaultSizes) against a
// committed golden file. The cells are tuple-retrieval counts and the
// figures derived from them, deterministic by construction, so any
// difference is a change in what a method retrieves. After an intended
// change, `go test ./internal/harness/ -run TestExperimentsGolden
// -update` rewrites the file, and its diff states the change.
func TestExperimentsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, All()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(experimentsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var got, want []JSONTable
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", experimentsGolden, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d experiments, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Title != w.Title {
			t.Errorf("experiment %d is %q (%s), golden %q (%s)", i, g.ID, g.Title, w.ID, w.Title)
			continue
		}
		diffCells(t, w.ID+" header", [][]string{g.Header}, [][]string{w.Header})
		diffCells(t, w.ID, g.Rows, w.Rows)
		diffCells(t, w.ID+" notes", [][]string{g.Notes}, [][]string{w.Notes})
	}
}

// diffCells reports every cell of got that differs from want, and any
// row or column that one has and the other lacks.
func diffCells(t *testing.T, what string, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, golden has %d", what, len(got), len(want))
		return
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Errorf("%s row %d: %d cells %q, golden has %d %q", what, r, len(got[r]), got[r], len(want[r]), want[r])
			continue
		}
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Errorf("%s row %d col %d: %q, golden %q", what, r, c, got[r][c], want[r][c])
			}
		}
	}
}
