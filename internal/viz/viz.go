// Package viz renders analysis results as Graphviz DOT: the segment
// control-flow graph of a region (Figure 2/3 style, with per-variable
// Algorithm 1 attributes) and the reference-level dependence graph with
// idempotency labels. cmd/idemlabel -dot prints them.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"refidem/internal/deps"
	"refidem/internal/idem"
	"refidem/internal/ir"
)

// SegmentGraphDOT renders the region's segment graph. Each node lists the
// segment name; edges follow the declared control flow, with the exit as
// a doublecircle.
func SegmentGraphDOT(r *ir.Region) string {
	var b strings.Builder
	b.WriteString("digraph segments {\n  rankdir=TB;\n  node [shape=box];\n")
	fmt.Fprintf(&b, "  exit [shape=doublecircle, label=%q];\n", "exit")
	for _, seg := range r.Segments {
		name := seg.Name
		if name == "" {
			name = fmt.Sprintf("S%d", seg.ID)
		}
		fmt.Fprintf(&b, "  s%d [label=%q];\n", seg.ID, name)
	}
	for _, seg := range r.Segments {
		if len(seg.Succs) == 0 {
			fmt.Fprintf(&b, "  s%d -> exit;\n", seg.ID)
			continue
		}
		for i, succ := range seg.Succs {
			attr := ""
			if seg.Branch != nil {
				if i == 0 {
					attr = " [label=\"taken\"]"
				} else {
					attr = " [label=\"else\"]"
				}
			}
			fmt.Fprintf(&b, "  s%d -> s%d%s;\n", seg.ID, succ, attr)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// refNode returns a stable DOT identifier and display label for a ref.
func refNode(ref *ir.Ref) (id, label string) {
	return fmt.Sprintf("r%d", ref.ID), fmt.Sprintf("%s\\n#%d S%d", ref.AccessText(), ref.ID, ref.SegID)
}

// DependenceGraphDOT renders the reference-by-reference dependence graph
// with idempotency labels: idempotent references are green boxes,
// speculative ones red; edge styles distinguish flow (solid), anti
// (dashed) and output (dotted); cross-segment edges are bold.
func DependenceGraphDOT(res *idem.Result) string {
	var b strings.Builder
	b.WriteString("digraph deps {\n  rankdir=LR;\n  node [shape=box, style=filled];\n")
	refs := append([]*ir.Ref(nil), res.Region.Refs...)
	sort.Slice(refs, func(i, j int) bool { return refs[i].ID < refs[j].ID })
	for _, ref := range refs {
		id, label := refNode(ref)
		color := "salmon"
		if res.Label(ref) == idem.Idempotent {
			color = "palegreen"
		}
		fmt.Fprintf(&b, "  %s [label=%q, fillcolor=%q, tooltip=%q];\n",
			id, label, color, res.Category(ref).String())
	}
	for _, d := range res.Deps.All {
		src, _ := refNode(res.Region.Refs[d.Src])
		dst, _ := refNode(res.Region.Refs[d.Dst])
		style := "solid"
		switch d.Kind {
		case deps.Anti:
			style = "dashed"
		case deps.Output:
			style = "dotted"
		}
		weight := ""
		if d.Cross {
			weight = ", penwidth=2"
		}
		fmt.Fprintf(&b, "  %s -> %s [style=%s%s, label=%q];\n", src, dst, style, weight, d.Kind.String())
	}
	b.WriteString("}\n")
	return b.String()
}
