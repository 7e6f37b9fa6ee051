// Package callgraph builds the procedure call graph of a program and
// computes bottom-up procedure summaries: the variables a procedure (and
// its transitive callees) may read or write, which scalars it must define
// before reading (the privatization-shaped effect), whether it may
// request a region exit, and which parameters stay affine through every
// subscript they reach (the affine parameter binding the dependence
// analysis relies on).
//
// The program must have passed ir.Program.Validate, so its call graph is
// acyclic: one callee-first depth-first walk summarizes every procedure
// after all of its callees.
package callgraph

import (
	"sort"

	"refidem/internal/ir"
)

// Summary is the bottom-up effect summary of one procedure, including the
// effects of every transitive callee.
type Summary struct {
	Proc *ir.Proc

	// Calls lists the direct callees in first-call order (deduplicated).
	Calls []*ir.Proc

	// Reads and Writes are the variables the procedure may read or write,
	// transitively through callees.
	Reads  map[*ir.Var]bool
	Writes map[*ir.Var]bool

	// MustWriteFirst holds the scalars the procedure's own body defines on
	// every path before any read — the effect that keeps a caller-side
	// privatization sound across the call.
	MustWriteFirst map[*ir.Var]bool

	// MayExit reports that the procedure (or a callee) contains an
	// ExitRegion, giving every calling region a data-dependent trip count.
	MayExit bool

	// AffineParams marks parameters whose every use in a subscript — own
	// body or through call-argument composition into callees — stays
	// affine, so binding an affine argument yields an affine caller-side
	// subscript.
	AffineParams map[string]bool

	// OwnStmts and OwnRefs count the un-expanded body's statements and
	// reference occurrences.
	OwnStmts int
	OwnRefs  int
}

// ReadOnly reports whether the procedure reads v without ever writing it
// (transitively).
func (s *Summary) ReadOnly(v *ir.Var) bool { return s.Reads[v] && !s.Writes[v] }

// VarNames returns the names in the set, sorted (for deterministic
// rendering).
func VarNames(set map[*ir.Var]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

// Analysis is the call graph of one program plus its summaries.
type Analysis struct {
	// Order lists the procedures bottom-up: each after all of its
	// callees.
	Order []*ir.Proc

	summaries map[*ir.Proc]*Summary
}

// Summary returns the summary of pr, or nil for procedures outside the
// analyzed program.
func (a *Analysis) Summary(pr *ir.Proc) *Summary { return a.summaries[pr] }

// Analyze builds the call graph and the bottom-up summaries of a validated
// program.
func Analyze(p *ir.Program) *Analysis {
	a := &Analysis{summaries: make(map[*ir.Proc]*Summary, len(p.Procs))}
	visited := make(map[*ir.Proc]bool, len(p.Procs))
	var visit func(pr *ir.Proc)
	visit = func(pr *ir.Proc) {
		visited[pr] = true
		calls := directCallees(pr)
		for _, callee := range calls {
			if !visited[callee] {
				visit(callee)
			}
		}
		a.summarize(pr, calls)
		a.Order = append(a.Order, pr)
	}
	for _, pr := range p.Procs {
		if !visited[pr] {
			visit(pr)
		}
	}
	return a
}

// summarize builds pr's summary from its own body and the (complete)
// summaries of its direct callees.
func (a *Analysis) summarize(pr *ir.Proc, calls []*ir.Proc) {
	reads, writes, mayExit := directEffects(pr)
	for _, callee := range calls {
		cs := a.summaries[callee]
		for v := range cs.Reads {
			reads[v] = true
		}
		for v := range cs.Writes {
			writes[v] = true
		}
		mayExit = mayExit || cs.MayExit
	}
	sum := &Summary{
		Proc:           pr,
		Calls:          calls,
		Reads:          reads,
		Writes:         writes,
		MustWriteFirst: a.mustWriteFirst(pr),
		MayExit:        mayExit,
		AffineParams:   a.affineParams(pr),
	}
	ir.WalkStmts(pr.Body, func(ir.Stmt) { sum.OwnStmts++ })
	sum.OwnRefs = countOwnRefs(pr)
	a.summaries[pr] = sum
}

// directCallees lists the procedures pr calls directly, deduplicated, in
// first-call order.
func directCallees(pr *ir.Proc) []*ir.Proc {
	var out []*ir.Proc
	seen := make(map[*ir.Proc]bool)
	ir.WalkStmts(pr.Body, func(st ir.Stmt) {
		if c, ok := st.(*ir.Call); ok && !seen[c.Proc] {
			seen[c.Proc] = true
			out = append(out, c.Proc)
		}
	})
	return out
}

// directEffects collects the variables pr's own body reads and writes and
// whether it contains an ExitRegion (callees excluded).
func directEffects(pr *ir.Proc) (reads, writes map[*ir.Var]bool, mayExit bool) {
	reads = make(map[*ir.Var]bool)
	writes = make(map[*ir.Var]bool)
	readExpr := func(e ir.Expr) {
		for _, ref := range ir.ExprRefs(e) {
			reads[ref.Var] = true
		}
	}
	ir.WalkStmts(pr.Body, func(st ir.Stmt) {
		switch s := st.(type) {
		case *ir.Assign:
			readExpr(s.RHS)
			for _, sub := range s.LHS.Subs {
				readExpr(sub)
			}
			writes[s.LHS.Var] = true
		case *ir.If:
			readExpr(s.Cond)
		case *ir.ExitRegion:
			readExpr(s.Cond)
			mayExit = true
		}
	})
	return reads, writes, mayExit
}

func countOwnRefs(pr *ir.Proc) int {
	n := 0
	count := func(e ir.Expr) {
		n += len(ir.ExprRefs(e))
	}
	ir.WalkStmts(pr.Body, func(st ir.Stmt) {
		switch s := st.(type) {
		case *ir.Assign:
			count(s.RHS)
			for _, sub := range s.LHS.Subs {
				count(sub)
			}
			n++ // the write itself
		case *ir.If:
			count(s.Cond)
		case *ir.ExitRegion:
			count(s.Cond)
		}
	})
	return n
}

// mustWriteFirst runs a small structured walk over the body: a scalar is
// in the set when every path through the body writes it before any read.
// Calls are treated as opaque reads of everything the callee may read,
// transitively (its finished summary) — conservative, and cheap enough
// for a summary.
func (a *Analysis) mustWriteFirst(pr *ir.Proc) map[*ir.Var]bool {
	states := make(map[*ir.Var]*mwState)
	get := func(v *ir.Var) *mwState {
		s, ok := states[v]
		if !ok {
			s = &mwState{}
			states[v] = s
		}
		return s
	}
	var readExpr func(e ir.Expr)
	readExpr = func(e ir.Expr) {
		for _, ref := range ir.ExprRefs(e) {
			s := get(ref.Var)
			if !s.mustDef {
				s.exposed = true
			}
		}
	}
	var walk func(stmts []ir.Stmt)
	walk = func(stmts []ir.Stmt) {
		for _, stmt := range stmts {
			switch s := stmt.(type) {
			case *ir.Assign:
				readExpr(s.RHS)
				for _, sub := range s.LHS.Subs {
					readExpr(sub)
				}
				if s.LHS.Var.IsScalar() {
					get(s.LHS.Var).mustDef = true
				} else {
					// An element write reads nothing but does not
					// must-define the aggregate.
					get(s.LHS.Var)
				}
			case *ir.If:
				readExpr(s.Cond)
				// Conservative join: treat both arms as conditional —
				// reads expose unless already must-defined, and defines
				// do not count as covering.
				ir.WalkStmts(s.Then, func(st2 ir.Stmt) { a.condEffects(st2, get) })
				ir.WalkStmts(s.Else, func(st2 ir.Stmt) { a.condEffects(st2, get) })
			case *ir.For:
				walk(s.Body)
			case *ir.ExitRegion:
				readExpr(s.Cond)
			case *ir.Call:
				// Opaque: the callee may read anything it summarizes;
				// treat those as exposed reads unless already covered.
				cs := a.summaries[s.Proc]
				for v := range cs.Reads {
					st := get(v)
					if !st.mustDef {
						st.exposed = true
					}
				}
				for v := range cs.Writes {
					get(v)
				}
			}
		}
	}
	walk(pr.Body)
	out := make(map[*ir.Var]bool)
	for v, s := range states {
		if v.IsScalar() && s.mustDef && !s.exposed {
			out[v] = true
		}
	}
	return out
}

// mwState tracks one variable during the mustWriteFirst walk.
type mwState struct{ mustDef, exposed bool }

// condEffects applies the conservative conditional-arm effect of one
// statement: any read exposes (unless covered), writes never cover. A
// call reads everything its callee's summary may read.
func (a *Analysis) condEffects(stmt ir.Stmt, get func(*ir.Var) *mwState) {
	mark := func(e ir.Expr) {
		for _, ref := range ir.ExprRefs(e) {
			s := get(ref.Var)
			if !s.mustDef {
				s.exposed = true
			}
		}
	}
	switch s := stmt.(type) {
	case *ir.Assign:
		mark(s.RHS)
		for _, sub := range s.LHS.Subs {
			mark(sub)
		}
		get(s.LHS.Var)
	case *ir.If:
		mark(s.Cond)
	case *ir.ExitRegion:
		mark(s.Cond)
	case *ir.Call:
		for v := range a.summaries[s.Proc].Reads {
			st := get(v)
			if !st.mustDef {
				st.exposed = true
			}
		}
	}
}

// affineParams decides which parameters stay affine through every
// subscript they reach. A parameter fails when it appears in a non-affine
// subscript of the own body, in a non-affine argument of a nested call,
// or flows into a callee parameter that itself is not affine. Every
// callee is summarized already.
func (a *Analysis) affineParams(pr *ir.Proc) map[string]bool {
	bad := make(map[string]bool)
	checkSub := func(e ir.Expr) {
		_, affine := ir.AffineOf(e)
		for _, name := range indexNamesIn(e) {
			if !affine {
				bad[name] = true
			}
		}
	}
	ir.WalkStmts(pr.Body, func(st ir.Stmt) {
		switch s := st.(type) {
		case *ir.Assign:
			for _, sub := range s.LHS.Subs {
				checkSub(sub)
			}
			for _, ref := range ir.ExprRefs(s.RHS) {
				for _, sub := range ref.Subs {
					checkSub(sub)
				}
			}
		case *ir.Call:
			cs := a.summaries[s.Proc]
			for i, arg := range s.Args {
				_, affine := ir.AffineOf(arg)
				calleeOK := cs.AffineParams[s.Proc.Params[i]]
				for _, name := range indexNamesIn(arg) {
					if !affine || !calleeOK {
						bad[name] = true
					}
				}
			}
		}
	})
	out := make(map[string]bool, len(pr.Params))
	for _, prm := range pr.Params {
		if !bad[prm] {
			out[prm] = true
		}
	}
	return out
}

// indexNamesIn collects the index names mentioned in the expression.
func indexNamesIn(e ir.Expr) []string {
	var out []string
	var walk func(ir.Expr)
	walk = func(e ir.Expr) {
		switch x := e.(type) {
		case *ir.Index:
			out = append(out, x.Name)
		case *ir.Bin:
			walk(x.L)
			walk(x.R)
		case *ir.Load:
			for _, sub := range x.Ref.Subs {
				walk(sub)
			}
		}
	}
	walk(e)
	return out
}
