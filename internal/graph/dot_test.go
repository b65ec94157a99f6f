package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteDOTBasic(t *testing.T) {
	g := buildGraph(3, [][2]int{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`digraph "G"`, `"n0" -> "n1"`, `"n1" -> "n2"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteDOTWithClassesAndLabels(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 1}, {0, 3}})
	cls := g.Classify(0)
	names := []string{"a", "b", "c", "d"}
	var buf bytes.Buffer
	err := g.WriteDOT(&buf, DOTOptions{
		Name:  "magic",
		Label: func(v int) string { return names[v] },
		Class: cls.ClassOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `digraph "magic"`) {
		t.Fatal("name missing")
	}
	if !strings.Contains(out, "salmon") { // recurring nodes b, c
		t.Fatalf("recurring color missing:\n%s", out)
	}
	if !strings.Contains(out, "palegreen") { // single nodes a, d
		t.Fatalf("single color missing:\n%s", out)
	}
	if !strings.Contains(out, `"a" -> "b"`) {
		t.Fatal("labeled arc missing")
	}
}

func TestWriteDOTDeterministic(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 3}, {0, 1}, {0, 2}})
	var a, b bytes.Buffer
	if err := g.WriteDOT(&a, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteDOT(&b, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("DOT output not deterministic")
	}
	// Arcs must be sorted by target id.
	out := a.String()
	if strings.Index(out, `"n0" -> "n1"`) > strings.Index(out, `"n0" -> "n3"`) {
		t.Fatal("arcs not sorted")
	}
}
