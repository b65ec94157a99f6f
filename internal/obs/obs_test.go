package obs

import (
	"strings"
	"testing"
)

func TestSpanTreeRetrievalAccounting(t *testing.T) {
	tr := New("query", 0)
	s1 := tr.Start("step1", 0)
	r1 := tr.Start("round", 0)
	tr.End(r1, 40) // round charged 40
	r2 := tr.Start("round", 40)
	tr.End(r2, 100) // round charged 60
	tr.End(s1, 110) // 10 charged in step1 outside the rounds
	s2 := tr.Start("step2", 110)
	tr.End(s2, 300)
	root := tr.Finish(305) // 5 charged at the top level

	if root == nil {
		t.Fatal("Finish returned nil on an armed trace")
	}
	if root.Total != 305 {
		t.Fatalf("root.Total = %d, want 305", root.Total)
	}
	if got := root.SumRetrievals(); got != 305 {
		t.Fatalf("SumRetrievals = %d, want 305 (self sums must reproduce the total)", got)
	}
	if root.Retrievals != 5 {
		t.Errorf("root self = %d, want 5", root.Retrievals)
	}
	step1 := root.Find("step1")
	if step1 == nil || step1.Total != 110 || step1.Retrievals != 10 {
		t.Errorf("step1 = %+v, want total 110 self 10", step1)
	}
	if len(step1.Children) != 2 || step1.Children[0].Retrievals != 40 || step1.Children[1].Retrievals != 60 {
		t.Errorf("rounds = %+v, want 40 and 60", step1.Children)
	}
	if step2 := root.Find("step2"); step2 == nil || step2.Retrievals != 190 {
		t.Errorf("step2 = %+v, want self 190", step2)
	}
	if n := root.SpanCount(); n != 5 {
		t.Errorf("SpanCount = %d, want 5", n)
	}
}

func TestEndClosesAbandonedDescendants(t *testing.T) {
	tr := New("root", 0)
	outer := tr.Start("outer", 0)
	tr.Start("inner", 3) // never explicitly ended
	tr.End(outer, 10)
	root := tr.Finish(10)
	inner := root.Find("inner")
	if inner == nil || inner.Total != 7 {
		t.Fatalf("inner = %+v, want total 7 (closed with outer's meter)", inner)
	}
	if outer := root.Find("outer"); outer.Retrievals != 3 {
		t.Errorf("outer self = %d, want 3", outer.Retrievals)
	}
}

func TestDoubleEndIsHarmless(t *testing.T) {
	tr := New("root", 0)
	a := tr.Start("a", 0)
	tr.End(a, 5)
	tr.End(a, 9) // stray double End must not close the root
	b := tr.Start("b", 5)
	tr.End(b, 8)
	root := tr.Finish(8)
	if root == nil || len(root.Children) != 2 {
		t.Fatalf("tree corrupted by double End: %+v", root)
	}
	if root.Find("a").Total != 5 || root.Find("b").Total != 3 {
		t.Errorf("span totals wrong after double End: a=%+v b=%+v", root.Find("a"), root.Find("b"))
	}
}

func TestNilAndDisarmedAreInert(t *testing.T) {
	var nilTrace *Trace
	if nilTrace.Armed() {
		t.Error("nil trace reports armed")
	}
	s := nilTrace.Start("x", 0)
	s.Set("k", 1)
	nilTrace.End(s, 10)
	if nilTrace.Finish(10) != nil || nilTrace.Root() != nil {
		t.Error("nil trace produced a tree")
	}

	d := Disarmed()
	if d.Armed() {
		t.Error("disarmed trace reports armed")
	}
	ds := d.Start("x", 0)
	if ds != nil {
		t.Error("disarmed Start returned a span")
	}
	ds.Set("k", 1)
	d.End(ds, 10)
	if d.Finish(10) != nil {
		t.Error("disarmed trace produced a tree")
	}

	var nilSpan *Span
	if nilSpan.SumRetrievals() != 0 || nilSpan.SpanCount() != 0 || nilSpan.Find("x") != nil {
		t.Error("nil span accessors not inert")
	}
	if err := WriteText(&strings.Builder{}, nilSpan); err != nil {
		t.Errorf("WriteText(nil) = %v", err)
	}
}

func TestStartAfterFinishIsInert(t *testing.T) {
	tr := New("root", 0)
	tr.Finish(0)
	if s := tr.Start("late", 0); s != nil {
		t.Error("Start after Finish returned a span")
	}
}

func TestWriteText(t *testing.T) {
	tr := New("solve", 0)
	s1 := tr.Start("step1", 0)
	s1.Set("rounds", 2)
	s1.Set("frontier_max", 7)
	tr.End(s1, 42)
	root := tr.Finish(50)

	var b strings.Builder
	if err := WriteText(&b, root); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"solve", "retrievals=8/50", "step1", "retrievals=42", "frontier_max=7 rounds=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "\n  step1") {
		t.Errorf("child not indented:\n%s", out)
	}
}

// TestStagesAllocateNothing pins that a traced stage with up to seven
// child spans of up to four attributes each allocates only the trace
// and its first block of span slots: spans and attributes live in
// place until Finish.
func TestStagesAllocateNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		tr := New("solve", 0)
		for i := int64(0); i < 7; i++ {
			s := tr.Start("round", i)
			s.Set("index", i)
			s.Set("frontier", 2*i)
			s.Set("delta", 3*i)
			s.Set("index", i) // an overwrite takes no new slot
			tr.End(s, i+1)
		}
	})
	if allocs != 2 {
		t.Errorf("a traced stage allocates %v times before Finish, want 2 (the trace and its first block)", allocs)
	}
}

// TestFinishLinksManySpans crosses the first block of span slots and
// the inline attribute slots: Children stay in start order, totals and
// self retrievals hold, and every attribute, also one Set after
// Finish, reaches Attrs.
func TestFinishLinksManySpans(t *testing.T) {
	tr := New("root", 0)
	outer := tr.Start("outer", 0)
	const rounds = 40
	for i := int64(0); i < rounds; i++ {
		s := tr.Start("round", 10*i)
		s.Set("index", i)
		tr.End(s, 10*i+10)
	}
	for i, k := range []string{"a", "b", "c", "d", "e", "f"} {
		outer.Set(k, int64(i))
	}
	tr.End(outer, 10*rounds+5)
	root := tr.Finish(10*rounds + 7)
	outer.Set("late", 9)

	if n := root.SpanCount(); n != rounds+2 {
		t.Fatalf("SpanCount = %d, want %d", n, rounds+2)
	}
	if root.SumRetrievals() != root.Total || root.Retrievals != 2 {
		t.Errorf("root self %d, sum %d, total %d; want self 2 and sum == total", root.Retrievals, root.SumRetrievals(), root.Total)
	}
	if len(root.Children) != 1 || root.Children[0] != outer || outer.Retrievals != 5 {
		t.Fatalf("root children %v, outer self %d", root.Children, outer.Retrievals)
	}
	for i, c := range outer.Children {
		if c.Name != "round" || c.Attrs["index"] != int64(i) || c.Total != 10 || c.Retrievals != 10 {
			t.Fatalf("round %d = %+v", i, c)
		}
	}
	if len(outer.Attrs) != 7 || outer.Attrs["f"] != 5 || outer.Attrs["late"] != 9 {
		t.Errorf("outer attrs = %v", outer.Attrs)
	}
	if again := tr.Finish(0); again != root || len(outer.Children) != rounds {
		t.Errorf("a second Finish changed the tree: %d children", len(outer.Children))
	}
}
