// Package ir defines the program representation used throughout the
// reproduction: programs made of regions, regions made of segments, and
// segments made of structured statements whose variable accesses are
// explicit Ref nodes.
//
// The model follows Definition 1 of the paper: a program is structured into
// regions (single entry, single exit) which execute sequentially with
// respect to one another, and regions are sub-structured into segments, the
// units of speculative parallel execution. Two region shapes are supported:
//
//   - LoopRegion: one segment template; the segment instances are the
//     iterations of the region loop (the paper's evaluation setting,
//     "regions are loops and segments are loop iterations").
//   - CFGRegion: an explicit DAG of segments with control-flow edges
//     (the setting of Figures 2 and 3 in the paper). Age order is the
//     topological order of the DAG, which equals sequential program order.
package ir

import (
	"fmt"
	"sort"
	"strconv"
)

// AccessType distinguishes read references from write references.
type AccessType uint8

const (
	// Read is a load reference.
	Read AccessType = iota
	// Write is a store reference.
	Write
)

// String returns "read" or "write".
func (a AccessType) String() string {
	if a == Read {
		return "read"
	}
	return "write"
}

// Var is a program variable: a scalar or a rectangular array of int64
// cells. Variables live in the program-wide variable table and are shared
// by all regions of the program; memory persists across regions.
type Var struct {
	Name string
	// Dims holds the array dimensions; nil or empty means scalar.
	// Subscripts are 0-based and are wrapped modulo the dimension at
	// execution time so that synthetic programs can never index out of
	// bounds (see vm package).
	Dims []int
}

// IsScalar reports whether v has no array dimensions.
func (v *Var) IsScalar() bool { return len(v.Dims) == 0 }

// Size returns the number of int64 cells the variable occupies.
func (v *Var) Size() int {
	n := 1
	for _, d := range v.Dims {
		n *= d
	}
	return n
}

func (v *Var) String() string { return v.Name }

// Ref is a single textual memory reference: one read or write occurrence
// of a variable, with its subscript expressions. Every occurrence in the
// program text is a distinct Ref with a unique ID; the dependence analysis,
// the RFW analysis and the labeling algorithm all operate reference by
// reference, as in the paper.
type Ref struct {
	ID     int
	Var    *Var
	Access AccessType
	// Subs holds one subscript expression per array dimension; empty for
	// scalars.
	Subs []Expr

	// SegID is the ID of the enclosing segment. Pos is the textual
	// (program-order) position of the reference within its segment; for
	// references not nested in a common inner loop this is also the
	// execution order.
	SegID int
	Pos   int

	// Ctx describes the loop nest and conditional context enclosing the
	// reference inside its segment; it is filled in by Region.Finalize.
	Ctx RefCtx
}

// RefCtx records where inside a segment a reference sits: the enclosing
// inner loops (innermost last) and whether any enclosing statement is a
// conditional, in which case the reference is not guaranteed to execute on
// all paths through the segment.
type RefCtx struct {
	Loops       []LoopInfo
	Conditional bool
}

// LoopInfo describes one inner loop of a segment body. ID identifies the
// loop statement uniquely within the region (assigned by Finalize), so two
// references share an enclosing loop exactly when the LoopInfo IDs in their
// contexts match.
type LoopInfo struct {
	ID    int
	Index string
	From  int
	To    int
	Step  int
}

// Trips returns the number of iterations of the loop (0 if empty).
func (l LoopInfo) Trips() int {
	if l.Step == 0 {
		return 0
	}
	if l.Step > 0 {
		if l.To < l.From {
			return 0
		}
		return (l.To-l.From)/l.Step + 1
	}
	if l.From < l.To {
		return 0
	}
	return (l.From-l.To)/(-l.Step) + 1
}

// appendText appends the reference's source text to b: the variable name,
// then any subscripts in brackets, "a[(i + 1),j]". It is the one
// rendering of a reference; the formatter, expression printing,
// AccessText and String all build on it.
func (r *Ref) appendText(b []byte) []byte {
	b = append(b, r.Var.Name...)
	if len(r.Subs) == 0 {
		return b
	}
	b = append(b, '[')
	for i, e := range r.Subs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendExpr(b, e)
	}
	return append(b, ']')
}

// appendAccessText appends "access text", e.g. "write a[i]".
func (r *Ref) appendAccessText(b []byte) []byte {
	b = append(b, r.Access.String()...)
	b = append(b, ' ')
	return r.appendText(b)
}

// AccessText returns the access type and source text, "write a[i]": the
// reference column of label tables, timelines and dependence graphs.
func (r *Ref) AccessText() string {
	return string(r.appendAccessText(make([]byte, 0, 32)))
}

// String returns AccessText tagged with the segment and reference IDs,
// "write a[i]@S0#3", the form dependence lists print.
func (r *Ref) String() string {
	b := r.appendAccessText(make([]byte, 0, 48))
	b = append(b, "@S"...)
	b = strconv.AppendInt(b, int64(r.SegID), 10)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(r.ID), 10)
	return string(b)
}

// Stmt is a structured statement in a segment body.
type Stmt interface {
	isStmt()
}

// Assign is an assignment statement: LHS := RHS. LHS must be a Write ref
// and RHS may contain Load expressions (Read refs).
type Assign struct {
	LHS *Ref
	RHS Expr
}

// If is a two-way conditional over statement lists. A zero condition value
// selects Else, any non-zero value selects Then.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// For is an inner loop with static bounds, fully contained in one segment.
// Step must be non-zero; negative steps iterate downwards.
type For struct {
	Index string
	From  int
	To    int
	Step  int
	Body  []Stmt
}

// ExitRegion terminates the region early (after the current segment
// completes) when Cond evaluates non-zero. In a LoopRegion it gives the
// region a data-dependent trip count and therefore introduces cross-segment
// control dependence; the speculative engine treats a taken exit under a
// not-taken prediction as a control-dependence violation.
type ExitRegion struct {
	Cond Expr
}

func (*Assign) isStmt()     {}
func (*If) isStmt()         {}
func (*For) isStmt()        {}
func (*ExitRegion) isStmt() {}

// Segment is a speculative unit (Definition 1). For LoopRegions there is a
// single template segment; CFGRegions list several, connected by Succs.
type Segment struct {
	ID   int
	Name string
	Body []Stmt

	// Succs lists CFG successor segment IDs (CFGRegion only). An empty
	// list means the segment exits the region. With two successors,
	// Branch selects between them: non-zero takes Succs[0], zero takes
	// Succs[1]. With one successor, Branch must be nil.
	Succs  []int
	Branch Expr
}

// RegionKind distinguishes the two supported region shapes.
type RegionKind uint8

const (
	// LoopRegion is a counted loop whose iterations are the segments.
	LoopRegion RegionKind = iota
	// CFGRegion is an explicit DAG of segments.
	CFGRegion
)

func (k RegionKind) String() string {
	if k == LoopRegion {
		return "loop"
	}
	return "cfg"
}

// Region is a single-entry single-exit program section whose segments may
// execute speculatively in parallel (Definitions 1 and 2).
type Region struct {
	Name     string
	Kind     RegionKind
	Segments []*Segment

	// Loop region parameters: the index variable name and the static
	// iteration domain From..To by Step (Step != 0).
	Index string
	From  int
	To    int
	Step  int

	// Ann holds front-end annotations; analyses may refine them.
	Ann Annotations

	// Refs lists every reference of the region in ID order; it is
	// populated by Finalize.
	Refs []*Ref

	// dense is the region's dense analysis index, rebuilt by Finalize.
	dense *RegionIndex
}

// Annotations carries optional front-end declarations attached to a region.
type Annotations struct {
	// Private names variables declared segment-private by the front end
	// (the paper assumes a Polaris-style privatization pass; our dataflow
	// package can also infer privacy, and the declared set is unioned in).
	Private map[string]bool
	// LiveOut names variables declared live after the region. When a
	// program has several regions the liveness pass computes this set;
	// stand-alone regions can declare it.
	LiveOut map[string]bool
}

// Program is a sequence of regions over a shared variable table, plus the
// procedures the regions may call (see proc.go).
type Program struct {
	Name    string
	Vars    []*Var
	Procs   []*Proc
	Regions []*Region

	byName     map[string]*Var
	procByName map[string]*Proc
}

// NewProgram returns an empty program with the given name.
func NewProgram(name string) *Program {
	return &Program{Name: name, byName: make(map[string]*Var)}
}

// AddVar creates and registers a variable. Dims may be empty for scalars.
// It panics if the name is already taken: variable names are unique per
// program.
func (p *Program) AddVar(name string, dims ...int) *Var {
	if p.byName == nil {
		p.byName = make(map[string]*Var)
	}
	if _, ok := p.byName[name]; ok {
		panic(fmt.Sprintf("ir: duplicate variable %q", name))
	}
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("ir: variable %q has non-positive dimension %d", name, d))
		}
	}
	v := &Var{Name: name, Dims: dims}
	p.byName[name] = v
	p.Vars = append(p.Vars, v)
	return v
}

// Var returns the variable with the given name, or nil.
func (p *Program) Var(name string) *Var {
	if p.byName == nil {
		p.byName = make(map[string]*Var)
		for _, v := range p.Vars {
			p.byName[v.Name] = v
		}
	}
	return p.byName[name]
}

// AddRegion appends a region to the program.
func (p *Program) AddRegion(r *Region) {
	p.Regions = append(p.Regions, r)
}

// InstanceCount returns how many segment instances the region spawns in a
// full (non-early-exited) execution: the loop trip count for LoopRegions,
// or the number of segments on the longest path for CFGRegions (the actual
// dynamic count depends on branches; this is an upper bound used for
// sizing).
func (r *Region) InstanceCount() int {
	if r.Kind == LoopRegion {
		return LoopInfo{Index: r.Index, From: r.From, To: r.To, Step: r.Step}.Trips()
	}
	return len(r.Segments)
}

// IndexValues returns the loop index values of a LoopRegion in iteration
// (age) order.
func (r *Region) IndexValues() []int64 {
	if r.Kind != LoopRegion {
		return nil
	}
	n := r.InstanceCount()
	vals := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, int64(r.From+i*r.Step))
	}
	return vals
}

// Segment returns the segment with the given ID, or nil.
func (r *Region) Seg(id int) *Segment {
	for _, s := range r.Segments {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// Finalize numbers every reference of the region (IDs and textual
// positions), records each reference's loop/conditional context, and sorts
// r.Refs by ID. Calls are expanded first: each resolved Call gets a fresh
// per-callsite Inlined body (see proc.go) whose references are numbered in
// place of the call, so every downstream analysis sees through procedure
// boundaries. Calls inside a recursive cycle are left unexpanded
// (Validate rejects such programs). It must be called once after the
// region body is complete and before any analysis runs. Finalize is
// idempotent.
func (r *Region) Finalize() {
	r.Refs = r.Refs[:0]
	id := 0
	loopID := 0
	var expanding map[string]bool
	for _, seg := range r.Segments {
		pos := 0
		var walk func(stmts []Stmt, loops []LoopInfo, cond bool)
		walk = func(stmts []Stmt, loops []LoopInfo, cond bool) {
			for _, st := range stmts {
				switch s := st.(type) {
				case *Assign:
					// RHS reads execute before the LHS write.
					for _, ref := range ExprRefs(s.RHS) {
						r.number(ref, seg.ID, &id, &pos, loops, cond)
					}
					for _, sub := range s.LHS.Subs {
						for _, ref := range ExprRefs(sub) {
							r.number(ref, seg.ID, &id, &pos, loops, cond)
						}
					}
					r.number(s.LHS, seg.ID, &id, &pos, loops, cond)
				case *If:
					for _, ref := range ExprRefs(s.Cond) {
						r.number(ref, seg.ID, &id, &pos, loops, cond)
					}
					walk(s.Then, loops, true)
					walk(s.Else, loops, true)
				case *For:
					li := LoopInfo{ID: loopID, Index: s.Index, From: s.From, To: s.To, Step: s.Step}
					loopID++
					walk(s.Body, append(loops[:len(loops):len(loops)], li), cond)
				case *ExitRegion:
					for _, ref := range ExprRefs(s.Cond) {
						r.number(ref, seg.ID, &id, &pos, loops, cond)
					}
				case *Call:
					// Arguments are load-free, so the call itself
					// contributes no references; the expansion does.
					s.Inlined = nil
					if s.Proc == nil || expanding[s.Proc.Name] {
						continue
					}
					scope := make(map[string]bool, len(loops)+1)
					if r.Kind == LoopRegion && r.Index != "" {
						scope[r.Index] = true
					}
					for _, li := range loops {
						scope[li.Index] = true
					}
					s.Inlined = expandCall(s, scope)
					if expanding == nil {
						expanding = make(map[string]bool)
					}
					expanding[s.Proc.Name] = true
					walk(s.Inlined, loops, cond)
					delete(expanding, s.Proc.Name)
				}
			}
		}
		walk(seg.Body, nil, false)
		// Branch condition reads execute at the very end of the segment.
		if seg.Branch != nil {
			for _, ref := range ExprRefs(seg.Branch) {
				r.number(ref, seg.ID, &id, &pos, nil, false)
			}
		}
	}
	sort.Slice(r.Refs, func(i, j int) bool { return r.Refs[i].ID < r.Refs[j].ID })
	r.buildDenseIndex()
}

func (r *Region) number(ref *Ref, segID int, id, pos *int, loops []LoopInfo, cond bool) {
	ref.ID = *id
	ref.SegID = segID
	ref.Pos = *pos
	ref.Ctx = RefCtx{Loops: loops, Conditional: cond}
	*id++
	*pos++
	r.Refs = append(r.Refs, ref)
}

// HasEarlyExit reports whether any statement of the region — including
// statements reached through procedure calls — is an ExitRegion, which
// makes the region's trip count data dependent. The walk is allocation
// free (it sits on the labeling hot path).
func (r *Region) HasEarlyExit() bool {
	for _, seg := range r.Segments {
		if stmtsHaveExit(seg.Body, 0) {
			return true
		}
	}
	return false
}

// stmtsHaveExit is the allocation-free exit scan behind HasEarlyExit. The
// depth cap bounds the unexpanded-callee walk on (invalid) recursive
// programs.
func stmtsHaveExit(stmts []Stmt, depth int) bool {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ExitRegion:
			return true
		case *If:
			if stmtsHaveExit(s.Then, depth) || stmtsHaveExit(s.Else, depth) {
				return true
			}
		case *For:
			if stmtsHaveExit(s.Body, depth) {
				return true
			}
		case *Call:
			if s.Inlined != nil {
				if stmtsHaveExit(s.Inlined, depth) {
					return true
				}
			} else if s.Proc != nil && depth < 64 {
				if stmtsHaveExit(s.Proc.Body, depth+1) {
					return true
				}
			}
		}
	}
	return false
}

// WalkStmts visits every statement in the list, depth first.
func WalkStmts(stmts []Stmt, f func(Stmt)) {
	for _, st := range stmts {
		f(st)
		switch s := st.(type) {
		case *If:
			WalkStmts(s.Then, f)
			WalkStmts(s.Else, f)
		case *For:
			WalkStmts(s.Body, f)
		}
	}
}

// SegRefs returns the references of segment segID in textual order.
func (r *Region) SegRefs(segID int) []*Ref {
	var out []*Ref
	for _, ref := range r.Refs {
		if ref.SegID == segID {
			out = append(out, ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// VarRefs returns all references to v in the region, in ID order.
func (r *Region) VarRefs(v *Var) []*Ref {
	var out []*Ref
	for _, ref := range r.Refs {
		if ref.Var == v {
			out = append(out, ref)
		}
	}
	return out
}

// RegionVars returns the set of variables referenced in the region, in
// first-use order.
func (r *Region) RegionVars() []*Var {
	seen := make(map[*Var]bool)
	var out []*Var
	for _, ref := range r.Refs {
		if !seen[ref.Var] {
			seen[ref.Var] = true
			out = append(out, ref.Var)
		}
	}
	return out
}
