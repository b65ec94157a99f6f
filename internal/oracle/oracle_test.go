package oracle

import (
	"reflect"
	"testing"
)

// TestAnswersHandComputed pins the oracle to instances small enough
// to verify by hand against Fact 2 directly.
func TestAnswersHandComputed(t *testing.T) {
	cases := []struct {
		name    string
		l, e, r []Arc
		source  string
		want    []string
	}{
		{
			name:   "k0 only: crossing at the source",
			e:      []Arc{{"a", "x"}},
			source: "a",
			want:   []string{"x"},
		},
		{
			name:   "k1: one L step, cross, one R step",
			l:      []Arc{{"a", "b"}},
			e:      []Arc{{"b", "x"}},
			r:      []Arc{{"y", "x"}}, // G_R arc x -> y
			source: "a",
			want:   []string{"y"},
		},
		{
			name:   "k1 without matching R step yields nothing",
			l:      []Arc{{"a", "b"}},
			e:      []Arc{{"b", "x"}},
			source: "a",
			want:   []string{},
		},
		{
			name: "same generation from the root: descendants at equal depth",
			// parent: a->b, a->c; E = identity; L = R = parent. k=0
			// gives a itself; k=1 walks to b or c, crosses the
			// identity, and the one reversed R arc from b (or c) leads
			// back to a — nobody else shares a's generation.
			l:      []Arc{{"a", "b"}, {"a", "c"}},
			e:      []Arc{{"a", "a"}, {"b", "b"}, {"c", "c"}},
			r:      []Arc{{"a", "b"}, {"a", "c"}},
			source: "a",
			want:   []string{"a"},
		},
		{
			name:   "cycle: infinitely many walk lengths, finite answers",
			l:      []Arc{{"a", "b"}, {"b", "a"}},
			e:      []Arc{{"a", "x"}},
			r:      []Arc{{"y", "x"}, {"x", "y"}}, // G_R 2-cycle x <-> y
			source: "a",
			// Even k: a --k--> a, cross to x, k R-steps from x lands on
			// x (k even). Odd k: a --k--> b, no E arc at b. So {x}.
			want: []string{"x"},
		},
		{
			name:   "separate name spaces: L-side b and R-side b differ",
			l:      []Arc{{"a", "b"}},
			e:      []Arc{{"b", "b"}}, // crosses to R-side "b"
			r:      []Arc{{"b", "b"}}, // R-side self-loop
			source: "a",
			// k=1: a->b, cross (b,b), one R step: (b,b) reversed is
			// b->b, stays at b.
			want: []string{"b"},
		},
		{
			name:   "source unknown to every relation",
			l:      []Arc{{"u", "v"}},
			e:      []Arc{{"u", "x"}},
			r:      []Arc{{"y", "x"}},
			source: "ghost",
			want:   []string{},
		},
		{
			name: "asymmetric walk lengths must match exactly",
			// a -> b -> c; E at c only; R chain x -> y -> z (reversed
			// arcs from x). k=2 crossing at c needs exactly 2 R steps.
			l:      []Arc{{"a", "b"}, {"b", "c"}},
			e:      []Arc{{"c", "x"}},
			r:      []Arc{{"y", "x"}, {"z", "y"}},
			source: "a",
			want:   []string{"z"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Answers(tc.l, tc.e, tc.r, tc.source)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Answers = %v, want %v", got, tc.want)
			}
			memo := AnswersMemo(tc.l, tc.e, tc.r, tc.source)
			if !reflect.DeepEqual(memo, tc.want) {
				t.Errorf("AnswersMemo = %v, want %v", memo, tc.want)
			}
		})
	}
}

// TestAnswersNeverNil pins the no-answers result to an empty non-nil
// slice: the serving layer marshals it as JSON [] (not null).
func TestAnswersNeverNil(t *testing.T) {
	if got := Answers(nil, nil, nil, "a"); got == nil || len(got) != 0 {
		t.Errorf("Answers on empty instance = %#v, want empty non-nil", got)
	}
	if got := AnswersMemo(nil, nil, nil, "a"); got == nil || len(got) != 0 {
		t.Errorf("AnswersMemo on empty instance = %#v, want empty non-nil", got)
	}
}

// TestDuplicateArcsAreSetSemantics asserts inputs are bags but
// semantics are sets.
func TestDuplicateArcsAreSetSemantics(t *testing.T) {
	l := []Arc{{"a", "b"}, {"a", "b"}, {"a", "b"}}
	e := []Arc{{"b", "x"}, {"b", "x"}}
	r := []Arc{{"y", "x"}, {"y", "x"}}
	want := []string{"y"}
	if got := Answers(l, e, r, "a"); !reflect.DeepEqual(got, want) {
		t.Errorf("Answers with duplicates = %v, want %v", got, want)
	}
}

// TestSolverAgreesWithAnswersMemo asserts the shared-fixpoint Solver
// answers every source — known and unknown — exactly as AnswersMemo
// does, including the never-nil contract.
func TestSolverAgreesWithAnswersMemo(t *testing.T) {
	l := []Arc{{"a", "b"}, {"b", "c"}, {"a", "c"}, {"c", "d"}}
	e := []Arc{{"b", "x"}, {"c", "y"}, {"d", "z"}}
	r := []Arc{{"p", "x"}, {"q", "y"}, {"x", "y"}, {"y", "z"}}
	solve := Solver(l, e, r)
	for _, src := range []string{"a", "b", "c", "d", "x", "ghost"} {
		got, want := solve(src), AnswersMemo(l, e, r, src)
		if got == nil {
			t.Fatalf("Solver(%q) returned nil", src)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Solver(%q) = %v, AnswersMemo = %v", src, got, want)
		}
	}
}
