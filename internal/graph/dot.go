package graph

import (
	"fmt"
	"io"
	"sort"
)

// DOTOptions controls DOT rendering.
type DOTOptions struct {
	// Name labels the digraph (default "G").
	Name string
	// Label returns a node's display label; nil uses the node id.
	Label func(v int) string
	// Class optionally colors nodes by their magic-graph class
	// (single = green, multiple = orange, recurring = red,
	// unreachable = gray); Classification.ClassOf fits.
	Class func(v int32) Class
}

// WriteDOT renders the graph in Graphviz DOT syntax, deterministically
// (nodes and arcs in id order), so outputs are diff- and test-stable.
func (g *Digraph) WriteDOT(w io.Writer, opts DOTOptions) error {
	name := opts.Name
	if name == "" {
		name = "G"
	}
	label := opts.Label
	if label == nil {
		label = func(v int) string { return fmt.Sprintf("n%d", v) }
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n", name); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		attrs := ""
		if opts.Class != nil {
			c := opts.Class(int32(v))
			attrs = fmt.Sprintf(" [style=filled, fillcolor=%q, tooltip=%q]", classColor(c), c.String())
		}
		if _, err := fmt.Fprintf(w, "  %q%s;\n", label(v), attrs); err != nil {
			return err
		}
	}
	for u := 0; u < g.N(); u++ {
		out := append([]int32(nil), g.Out(u)...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		for _, v := range out {
			if _, err := fmt.Fprintf(w, "  %q -> %q;\n", label(u), label(int(v))); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func classColor(c Class) string {
	switch c {
	case Single:
		return "palegreen"
	case Multiple:
		return "orange"
	case Recurring:
		return "salmon"
	default:
		return "lightgray"
	}
}
