// Package cfg provides the segment control-flow graph used by the
// re-occurring-first-write analysis (Algorithm 1 of the paper) and by the
// dependence analysis. Nodes are segments plus a distinguished synthetic
// exit node placed at the region exit, exactly as the paper's algorithm
// prescribes ("An extra node v_exit is placed at the exit of R").
//
// The graph is finalized at construction into dense position-indexed
// adjacency plus a reachability closure and a precomputed BFS order, so
// the per-pair queries the dependence analysis issues (OnCommonPath,
// Reaches) are O(1) and allocation-free.
package cfg

import (
	"fmt"

	"refidem/internal/ir"
)

// Exit is the node ID of the synthetic exit node v_exit.
const Exit = -1

// Graph is a directed graph over segment IDs. For CFG regions it mirrors
// the region's segment edges; for loop regions it is the two-node
// template→exit chain (the iteration chain is handled symbolically by the
// analyses). Every node with no explicit successor gets an edge to Exit.
type Graph struct {
	// Nodes lists the real (non-exit) node IDs in age order.
	Nodes []int

	pos   map[int]int // node ID -> age position; Exit handled separately
	succs [][]int     // by position (Exit row at len(Nodes))
	// reach[a*(n+1)+b] reports a path of length >= 1 from position a to
	// position b, where position n is Exit.
	reach     []bool
	bfsOrder  []int // node IDs in Algorithm 1's BFS order from the entry
	hasBranch bool
}

// FromRegion builds the segment graph of a region. For a CFG region the
// graph has one node per segment with the declared edges; segments without
// successors point at Exit. For a loop region the graph is the single
// template segment with an edge to Exit.
func FromRegion(r *ir.Region) *Graph {
	g := newGraph(len(r.Segments))
	for i, s := range r.Segments {
		g.Nodes = append(g.Nodes, s.ID)
		g.pos[s.ID] = i
	}
	for _, s := range r.Segments {
		if len(s.Succs) == 0 {
			g.addEdge(s.ID, Exit)
			continue
		}
		for _, succ := range s.Succs {
			g.addEdge(s.ID, succ)
		}
	}
	g.finalize()
	return g
}

// New builds a graph from explicit nodes (in age order) and edges; edges to
// Exit are permitted. Used by tests and by the random program generator.
func New(nodes []int, edges [][2]int) (*Graph, error) {
	g := newGraph(len(nodes))
	for i, n := range nodes {
		if n == Exit {
			return nil, fmt.Errorf("cfg: node ID %d is reserved for the exit node", Exit)
		}
		if _, dup := g.pos[n]; dup {
			return nil, fmt.Errorf("cfg: duplicate node %d", n)
		}
		g.Nodes = append(g.Nodes, n)
		g.pos[n] = i
	}
	for _, e := range edges {
		if _, ok := g.pos[e[0]]; !ok {
			return nil, fmt.Errorf("cfg: edge from unknown node %d", e[0])
		}
		if e[1] != Exit {
			if _, ok := g.pos[e[1]]; !ok {
				return nil, fmt.Errorf("cfg: edge to unknown node %d", e[1])
			}
		}
		g.addEdge(e[0], e[1])
	}
	for i, n := range g.Nodes {
		if len(g.succs[i]) == 0 {
			g.addEdge(n, Exit)
		}
	}
	g.finalize()
	return g, nil
}

func newGraph(n int) *Graph {
	return &Graph{
		pos:   make(map[int]int, n),
		succs: make([][]int, n+1),
	}
}

// posOf returns the dense position of a node ID: its age rank, len(Nodes)
// for Exit, and -1 for unknown IDs.
func (g *Graph) posOf(n int) int {
	if n == Exit {
		return len(g.Nodes)
	}
	if p, ok := g.pos[n]; ok {
		return p
	}
	return -1
}

func (g *Graph) addEdge(from, to int) {
	pf := g.posOf(from)
	for _, s := range g.succs[pf] {
		if s == to {
			return
		}
	}
	g.succs[pf] = append(g.succs[pf], to)
}

// finalize computes the derived structures: the reachability closure, the
// BFS order and the branch flag. Edges must not be added afterwards.
func (g *Graph) finalize() {
	n := len(g.Nodes)
	g.reach = make([]bool, (n+1)*(n+1))
	// Per-source BFS over positions; graphs are tiny (segments of one
	// region) and this also covers non-DAG inputs to New.
	work := make([]int, 0, n+1)
	for src := 0; src <= n; src++ {
		row := g.reach[src*(n+1) : (src+1)*(n+1)]
		work = work[:0]
		work = append(work, src)
		for len(work) > 0 {
			p := work[0]
			work = work[1:]
			for _, succ := range g.succs[p] {
				sp := g.posOf(succ)
				if !row[sp] {
					row[sp] = true
					work = append(work, sp)
				}
			}
		}
	}
	for i := range g.Nodes {
		if len(g.succs[i]) > 1 {
			g.hasBranch = true
		}
	}
	if n == 0 {
		return
	}
	// Algorithm 1's traversal: FIFO from the entry node, successors in
	// edge order, Exit excluded.
	seen := make([]bool, n)
	g.bfsOrder = make([]int, 0, n)
	queue := work[:0]
	queue = append(queue, 0)
	seen[0] = true
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		g.bfsOrder = append(g.bfsOrder, g.Nodes[p])
		for _, succ := range g.succs[p] {
			if succ == Exit {
				continue
			}
			sp := g.posOf(succ)
			if !seen[sp] {
				seen[sp] = true
				queue = append(queue, sp)
			}
		}
	}
}

// Succs returns the successors of n (possibly including Exit).
func (g *Graph) Succs(n int) []int {
	p := g.posOf(n)
	if p < 0 {
		return nil
	}
	return g.succs[p]
}

// Age returns the age rank of a node: older segments have smaller ranks.
// The exit node is younger than everything.
func (g *Graph) Age(n int) int {
	if n == Exit {
		return len(g.Nodes)
	}
	return g.pos[n]
}

// Entry returns the oldest node (age 0).
func (g *Graph) Entry() int {
	if len(g.Nodes) == 0 {
		return Exit
	}
	return g.Nodes[0]
}

// Reaches reports whether there is a directed path from a to b (of length
// zero or more; a node reaches itself).
func (g *Graph) Reaches(a, b int) bool {
	if a == b {
		return true
	}
	pa, pb := g.posOf(a), g.posOf(b)
	if pa < 0 || pb < 0 {
		return false
	}
	return g.reach[pa*(len(g.Nodes)+1)+pb]
}

// OnCommonPath reports whether some control-flow path through the region
// contains both a and b. Since the graph is a DAG in age order, that is
// equivalent to one reaching the other. Dependences only exist between
// references whose segments can co-occur on a path (e.g. the two exclusive
// branch arms of Figure 2 carry no mutual dependence).
func (g *Graph) OnCommonPath(a, b int) bool {
	return g.Reaches(a, b) || g.Reaches(b, a)
}

// BFS visits nodes breadth-first from the entry node, calling f on each
// real node (not Exit). This is the traversal order of Algorithm 1.
func (g *Graph) BFS(f func(n int)) {
	for _, n := range g.bfsOrder {
		f(n)
	}
}

// Paths enumerates every path from the node `from` to the exit node, as
// slices of real node IDs (Exit omitted). It is exponential and intended
// only for tests and the RFW property checker on small graphs; maxPaths
// bounds the enumeration (0 means unlimited).
func (g *Graph) Paths(from int, maxPaths int) [][]int {
	var out [][]int
	var cur []int
	var rec func(n int) bool
	rec = func(n int) bool {
		if n == Exit {
			path := append([]int(nil), cur...)
			out = append(out, path)
			return maxPaths > 0 && len(out) >= maxPaths
		}
		cur = append(cur, n)
		for _, s := range g.Succs(n) {
			if rec(s) {
				return true
			}
		}
		cur = cur[:len(cur)-1]
		return false
	}
	rec(from)
	return out
}

// HasBranch reports whether any node has more than one successor, which
// for a region means cross-segment control dependence exists.
func (g *Graph) HasBranch() bool { return g.hasBranch }
