// Package obs is the per-query observability layer: a span tree that
// records, for every stage of a query's life — parse/validate, cache
// probe, graph classification, Step 1 and Step 2 of a magic counting
// run, engine fixpoint rounds — its wall-clock duration and the tuple
// retrievals it charged, in the paper's own cost unit.
//
// Retrieval accounting is exact by construction. Spans never count
// retrievals themselves; instead the instrumented code passes its
// meter reading (the solver's running retrieval total) to Start and
// End, and each span records the delta. A span's Retrievals field is
// its *self* cost — the meter delta across the span minus the deltas
// of its children — so summing Retrievals over every span of a
// finished tree reproduces the root's Total exactly, which the
// serving layer asserts equals core's Result.Stats.Retrievals.
//
// The zero value of the API is "off": every method is safe on a nil
// *Trace and a nil *Span and does nothing, so instrumented code holds
// an always-valid trace handle and pays one predictable-branch nil
// check per *stage boundary* (never per tuple) when tracing is
// disabled. Disarmed returns a non-nil trace that records nothing —
// the "enabled but unsampled" configuration the benchmark guard
// measures against the nil path.
//
// A Trace is single-goroutine: one request's solve opens and closes
// its spans on the goroutine that runs it, so no locking is needed or
// provided.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Span is one traced stage. Exported fields marshal into the HTTP
// trace response. Attrs, Children and Retrievals are filled in by
// Finish; until then a span holds only what Start, Set and End record.
type Span struct {
	// Name identifies the stage, e.g. "step1", "round", "descent".
	Name string `json:"name"`
	// StartMS is the span's start offset from the trace start.
	StartMS float64 `json:"start_ms"`
	// DurationMS is the span's wall-clock duration.
	DurationMS float64 `json:"duration_ms"`
	// Retrievals is the span's self cost: tuple retrievals charged
	// inside the span but outside its children.
	Retrievals int64 `json:"retrievals"`
	// Total is the span's inclusive cost: all retrievals charged
	// between Start and End, children included.
	Total int64 `json:"total_retrievals"`
	// Attrs carries stage-specific sizes: frontier widths, delta
	// counts, reduced-set sizes, iteration counts.
	Attrs map[string]int64 `json:"attrs,omitempty"`
	// Children are the nested stages, in start order.
	Children []*Span `json:"children,omitempty"`

	parent     *Span
	start      time.Time
	startMeter int64
	// attrs holds the first Set calls in place, so a traced stage
	// allocates nothing while it runs; Finish moves them into Attrs.
	attrs  [4]attr
	nattrs int32
	kids   int32 // children, counted by Finish
	final  bool  // Finish has built Attrs and Children
}

type attr struct {
	key string
	v   int64
}

// Set records a stage attribute. Safe on a nil span (tracing off).
func (s *Span) Set(key string, v int64) {
	if s == nil {
		return
	}
	if !s.final {
		for i := range s.attrs[:s.nattrs] {
			if s.attrs[i].key == key {
				s.attrs[i].v = v
				return
			}
		}
		if int(s.nattrs) < len(s.attrs) {
			s.attrs[s.nattrs] = attr{key, v}
			s.nattrs++
			return
		}
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64, 2*len(s.attrs))
	}
	s.Attrs[key] = v
}

// Trace is one query's span tree under construction. The zero Trace
// must not be used directly; obtain one from New or Disarmed.
//
// Spans live in blocks that never move, so Start hands out a pointer
// without allocating until the first block is full. The tree's
// Children links and Attrs maps are built once, by Finish, outside
// every span's measured time: a traced stage pays two clock reads and
// a few stores per child span, not a heap allocation.
type Trace struct {
	root  *Span
	cur   *Span // innermost open span; nil once Finish has run
	start time.Time
	armed bool

	first []Span   // the root and the first spans, in start order
	more  [][]Span // later blocks, each twice the size of the last
}

// firstBlock is the span slots New allocates with the trace: enough
// for a solve's stages and a few rounds each.
const firstBlock = 8

// New opens a trace whose root span is named name. meter is the
// instrumented meter's current reading (usually 0: a fresh solver
// charges from zero).
func New(name string, meter int64) *Trace {
	t := &Trace{armed: true, first: make([]Span, 0, firstBlock)}
	root := t.alloc()
	now := time.Now()
	root.Name, root.start, root.startMeter = name, now, meter
	t.root, t.cur, t.start = root, root, now
	return t
}

// alloc returns the next free span slot.
func (t *Trace) alloc() *Span {
	b := &t.first
	if n := len(t.more); n > 0 {
		b = &t.more[n-1]
	}
	if len(*b) == cap(*b) {
		t.more = append(t.more, make([]Span, 0, 2*cap(*b)))
		b = &t.more[len(t.more)-1]
	}
	*b = (*b)[:len(*b)+1]
	return &(*b)[len(*b)-1]
}

// each calls f on every span in start order, the root first.
func (t *Trace) each(f func(*Span)) {
	for i := range t.first {
		f(&t.first[i])
	}
	for _, b := range t.more {
		for i := range b {
			f(&b[i])
		}
	}
}

// Disarmed returns a non-nil trace that records nothing: Start
// returns nil and End ignores it. It exists so the trace plumbing can
// be exercised — options populated, handles passed, branches taken —
// without sampling, which is exactly what the mcbench trace guard
// compares against the nil-trace path.
func Disarmed() *Trace { return &Trace{} }

// Armed reports whether the trace records spans. Safe on nil.
func (t *Trace) Armed() bool { return t != nil && t.armed }

// Start opens a span named name nested under the innermost open span,
// recording the caller's meter reading. It returns nil — and records
// nothing — on a nil or disarmed trace, or after Finish.
func (t *Trace) Start(name string, meter int64) *Span {
	if t == nil || !t.armed || t.cur == nil {
		return nil
	}
	s := t.alloc()
	s.Name, s.parent, s.startMeter = name, t.cur, meter
	s.start = time.Now()
	t.cur = s
	return s
}

// End closes s with the caller's meter reading, computing its
// duration and retrieval deltas. Unclosed descendants of s are closed
// with the same reading (a defensive measure; instrumented code pairs
// Start and End). Safe on a nil span.
func (t *Trace) End(s *Span, meter int64) {
	if t == nil || s == nil {
		return
	}
	// A span not on the open stack (already closed, or a stray handle)
	// must not close anything — notably not on a buggy double End.
	onStack := false
	for c := t.cur; c != nil; c = c.parent {
		if c == s {
			onStack = true
			break
		}
	}
	if !onStack {
		return
	}
	// Pop back to s: any spans left open below it share its end state.
	for t.cur != nil && t.cur != s.parent {
		c := t.cur
		c.close(t.start, meter)
		t.cur = c.parent
		if c == s {
			return
		}
	}
}

// Finish closes every open span including the root and returns the
// finished tree. The trace records nothing further. Returns nil on a
// nil or disarmed trace.
func (t *Trace) Finish(meter int64) *Span {
	if t == nil || !t.armed {
		return nil
	}
	if t.cur == nil {
		return t.root
	}
	for t.cur != nil {
		c := t.cur
		c.close(t.start, meter)
		t.cur = c.parent
	}
	t.link()
	return t.root
}

// link builds the finished tree: every span's Children (in start
// order, all carved from one backing array), its self Retrievals and
// its Attrs map.
func (t *Trace) link() {
	n := 0
	t.each(func(s *Span) {
		if s.parent != nil {
			s.parent.kids++
			n++
		}
	})
	buf := make([]*Span, n)
	t.each(func(s *Span) {
		if s.kids > 0 {
			s.Children, buf = buf[:0:s.kids], buf[s.kids:]
		}
	})
	t.each(func(s *Span) {
		if s.parent != nil {
			s.parent.Children = append(s.parent.Children, s)
		}
	})
	t.each(func(s *Span) {
		s.Retrievals = s.Total
		for _, c := range s.Children {
			s.Retrievals -= c.Total
		}
		if s.nattrs > 0 {
			if s.Attrs == nil {
				s.Attrs = make(map[string]int64, s.nattrs)
			}
			for _, a := range s.attrs[:s.nattrs] {
				s.Attrs[a.key] = a.v
			}
		}
		s.final = true
	})
}

// Root returns the root span (nil on a nil or disarmed trace). Before
// Finish the tree has no Children links yet.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// close fixes a span's duration and inclusive retrievals; Finish
// derives the self retrievals once the tree is linked.
func (s *Span) close(traceStart time.Time, meter int64) {
	now := time.Now()
	s.StartMS = float64(s.start.Sub(traceStart).Microseconds()) / 1000
	s.DurationMS = float64(now.Sub(s.start).Microseconds()) / 1000
	s.Total = meter - s.startMeter
}

// SumRetrievals sums the self Retrievals over the whole tree. On a
// finished tree this equals the root's Total — the invariant the
// trace-shape tests assert against the solver's Result meter.
func (s *Span) SumRetrievals() int64 {
	if s == nil {
		return 0
	}
	total := s.Retrievals
	for _, c := range s.Children {
		total += c.SumRetrievals()
	}
	return total
}

// SpanCount counts the spans in the tree (0 for nil).
func (s *Span) SpanCount() int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children {
		n += c.SpanCount()
	}
	return n
}

// Find returns the first span named name in preorder, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// WriteText renders the finished tree as an indented text outline —
// the mcq -trace output:
//
//	solve                         1.042ms  retrievals=0/812
//	  step1/multiple              0.310ms  retrievals=12/402  rounds=7
//	    round                     0.021ms  retrievals=55      frontier=3 index=0
//
// Self retrievals print alone on leaves; inner spans print self/total.
func WriteText(w io.Writer, s *Span) error {
	return writeText(w, s, 0)
}

func writeText(w io.Writer, s *Span, depth int) error {
	if s == nil {
		return nil
	}
	indent := strings.Repeat("  ", depth)
	ret := fmt.Sprintf("retrievals=%d", s.Retrievals)
	if len(s.Children) > 0 {
		ret = fmt.Sprintf("retrievals=%d/%d", s.Retrievals, s.Total)
	}
	line := fmt.Sprintf("%-32s %9.3fms  %s", indent+s.Name, s.DurationMS, ret)
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, s.Attrs[k])
		}
		line += "  " + strings.Join(parts, " ")
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, c := range s.Children {
		if err := writeText(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}
