package ir

import "fmt"

// This file adds procedures to the program representation. A Proc is a
// top-level, named statement list with by-value integer parameters; a Call
// is a statement invoking one. Procedures make the analyses
// interprocedural without giving up the dense-index pipeline: every Call
// carries a per-callsite expansion (Inlined) built by Region.Finalize —
// the callee body cloned, inner-loop indices renamed where they would
// capture an enclosing index, and parameters substituted by the argument
// expressions. Because arguments are restricted to memory-load-free index
// expressions, by-value and by-name evaluation coincide, and an argument
// that is affine in the enclosing loop indices keeps every callee
// subscript that is affine in the parameters affine in the caller's
// indices — the affine parameter binding that lets the dependence solver
// and Algorithm 2 label call-containing regions precisely.
//
// The surface program keeps the Call statement: printing and
// fingerprinting render `call f(args)` and the `proc` declaration, never
// the expansion, so round-trips and content hashes see the
// interprocedural structure. Recursive call cycles cannot be expanded;
// Validate rejects them, and everything that runs after it relies on an
// acyclic call graph.

// Proc is a top-level procedure: a named statement list over the
// program's shared variable table, parameterized by integer values.
// Parameters act as loop-index names inside the body (they are
// non-speculative values, like loop indices).
type Proc struct {
	Name   string
	Params []string
	Body   []Stmt
}

// Call is a statement invoking a procedure. Args must be memory-load-free
// index expressions (constants, enclosing loop indices and parameters,
// and integer arithmetic over them); Validate enforces this.
type Call struct {
	Callee string
	// Args holds one expression per callee parameter.
	Args []Expr

	// Proc is the resolved callee, set by the parser, by builders, or by
	// Program.ResolveCalls. A nil Proc makes the program invalid.
	Proc *Proc

	// Inlined is the per-callsite expansion, rebuilt by Region.Finalize:
	// a clone of the callee body with colliding inner-loop indices renamed
	// and parameters substituted by Args. It is derived state — printing
	// and fingerprinting ignore it. Finalize leaves it nil on an
	// unresolved call and on a call that re-enters a procedure it is
	// expanding; Validate rejects both programs.
	Inlined []Stmt
}

func (*Call) isStmt() {}

// AddProc creates and registers a procedure. It panics if the name is
// already taken: procedure names are unique per program.
func (p *Program) AddProc(name string, params []string, body []Stmt) *Proc {
	if p.procByName == nil {
		p.procByName = make(map[string]*Proc)
	}
	if _, ok := p.procByName[name]; ok {
		panic(fmt.Sprintf("ir: duplicate procedure %q", name))
	}
	pr := &Proc{Name: name, Params: params, Body: body}
	p.procByName[name] = pr
	p.Procs = append(p.Procs, pr)
	return pr
}

// Proc returns the procedure with the given name, or nil.
func (p *Program) Proc(name string) *Proc {
	if p.procByName == nil {
		p.procByName = make(map[string]*Proc)
		for _, pr := range p.Procs {
			p.procByName[pr.Name] = pr
		}
	}
	return p.procByName[name]
}

// ResolveCalls links every Call statement (in procedure bodies and region
// segments) to the program's procedure of the same name and invalidates
// stale expansions. Builders that assemble programs from cloned or
// generated statements call it before Finalize.
func (p *Program) ResolveCalls() error {
	var resolve func(stmts []Stmt) error
	resolve = func(stmts []Stmt) error {
		for _, st := range stmts {
			switch s := st.(type) {
			case *If:
				if err := resolve(s.Then); err != nil {
					return err
				}
				if err := resolve(s.Else); err != nil {
					return err
				}
			case *For:
				if err := resolve(s.Body); err != nil {
					return err
				}
			case *Call:
				pr := p.Proc(s.Callee)
				if pr == nil {
					return fmt.Errorf("ir: call to unknown procedure %q", s.Callee)
				}
				s.Proc = pr
				s.Inlined = nil
			}
		}
		return nil
	}
	for _, pr := range p.Procs {
		if err := resolve(pr.Body); err != nil {
			return fmt.Errorf("procedure %q: %w", pr.Name, err)
		}
	}
	for _, r := range p.Regions {
		for _, seg := range r.Segments {
			if err := resolve(seg.Body); err != nil {
				return fmt.Errorf("region %q: %w", r.Name, err)
			}
		}
	}
	return nil
}

// RecursionCycle returns one cycle of procedure names ("f" calling "g"
// calling "f" yields [f g f]) when the call graph is cyclic, or nil.
// Recursive programs cannot be expanded or executed: Validate rejects
// them, and the whole-program labelers refuse them.
func (p *Program) RecursionCycle() []string {
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	state := make(map[string]int, len(p.Procs))
	var stack []string
	var cycle []string
	var visit func(pr *Proc) bool
	visit = func(pr *Proc) bool {
		state[pr.Name] = onStack
		stack = append(stack, pr.Name)
		for _, c := range procCalls(pr) {
			callee := c.Proc
			if callee == nil {
				callee = p.Proc(c.Callee)
			}
			if callee == nil {
				continue
			}
			switch state[callee.Name] {
			case onStack:
				for i, name := range stack {
					if name == callee.Name {
						cycle = append(append([]string{}, stack[i:]...), callee.Name)
						return true
					}
				}
			case unvisited:
				if visit(callee) {
					return true
				}
			}
		}
		state[pr.Name] = done
		stack = stack[:len(stack)-1]
		return false
	}
	for _, pr := range p.Procs {
		if state[pr.Name] == unvisited && visit(pr) {
			return cycle
		}
	}
	return nil
}

// procCalls collects the Call statements of the procedure body in
// declaration order (surface calls only, not expansions).
func procCalls(pr *Proc) []*Call {
	var out []*Call
	WalkStmts(pr.Body, func(s Stmt) {
		if c, ok := s.(*Call); ok {
			out = append(out, c)
		}
	})
	return out
}

// expandCall builds the per-callsite expansion of a resolved call: the
// callee body cloned, inner loops whose index would capture a name in
// scope renamed to fresh names, and parameters substituted by the
// argument expressions. scope holds the loop-index names live at the
// callsite and is mutated during the walk (callers pass a fresh map).
func expandCall(c *Call, scope map[string]bool) []Stmt {
	body := CloneStmts(c.Proc.Body)
	// The avoid set for fresh names: everything in scope, the callee's
	// parameters, and every loop index the body itself declares — a fresh
	// name colliding with any of those would re-introduce capture.
	avoid := make(map[string]bool, len(scope)+len(c.Proc.Params)+8)
	for k := range scope {
		avoid[k] = true
	}
	for _, prm := range c.Proc.Params {
		avoid[prm] = true
	}
	WalkStmts(body, func(s Stmt) {
		if f, ok := s.(*For); ok {
			avoid[f.Index] = true
		}
	})
	renameCollidingLoops(body, scope, avoid)
	repl := make(map[string]Expr, len(c.Proc.Params))
	for i, prm := range c.Proc.Params {
		if i < len(c.Args) {
			repl[prm] = c.Args[i]
		}
	}
	substituteParams(body, repl)
	return body
}

// substituteParams replaces every parameter use with its argument
// expression in one simultaneous pass. Replacements are never themselves
// re-substituted, so an argument mentioning a caller index that happens
// to share a (later) parameter's name cannot be captured — sequential
// SubstituteIndex calls would rewrite it.
func substituteParams(stmts []Stmt, repl map[string]Expr) {
	if len(repl) == 0 {
		return
	}
	var subst func(e Expr) Expr
	subst = func(e Expr) Expr {
		switch x := e.(type) {
		case *Const:
			return x
		case *Index:
			if r, ok := repl[x.Name]; ok {
				return CloneExpr(r)
			}
			return x
		case *Load:
			for i, sub := range x.Ref.Subs {
				x.Ref.Subs[i] = subst(sub)
			}
			return x
		case *Bin:
			x.L = subst(x.L)
			x.R = subst(x.R)
			return x
		}
		panic("ir: unknown expression in substituteParams")
	}
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, st := range stmts {
			switch s := st.(type) {
			case *Assign:
				s.RHS = subst(s.RHS)
				for i, sub := range s.LHS.Subs {
					s.LHS.Subs[i] = subst(sub)
				}
			case *If:
				s.Cond = subst(s.Cond)
				walk(s.Then)
				walk(s.Else)
			case *For:
				if saved, shadowed := repl[s.Index]; shadowed {
					// A loop rebinding a parameter name shadows it
					// (validation rejects this; tolerated here).
					delete(repl, s.Index)
					walk(s.Body)
					repl[s.Index] = saved
				} else {
					walk(s.Body)
				}
			case *ExitRegion:
				s.Cond = subst(s.Cond)
			case *Call:
				for i, a := range s.Args {
					s.Args[i] = subst(a)
				}
				s.Inlined = nil
			}
		}
	}
	walk(stmts)
}

// renameCollidingLoops alpha-renames every For whose index name is
// already in scope, keeping the expansion free of shadowing. scope is
// extended while walking each loop body and restored afterwards.
func renameCollidingLoops(stmts []Stmt, scope, avoid map[string]bool) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *If:
			renameCollidingLoops(s.Then, scope, avoid)
			renameCollidingLoops(s.Else, scope, avoid)
		case *For:
			if scope[s.Index] {
				old := s.Index
				fresh := freshIndexName(old, avoid)
				avoid[fresh] = true
				s.Index = fresh
				SubstituteIndex(s.Body, old, &Index{Name: fresh})
			}
			scope[s.Index] = true
			renameCollidingLoops(s.Body, scope, avoid)
			delete(scope, s.Index)
		}
	}
}

// freshIndexName derives the first name of the form base_N not in the
// avoid set. The result is a plain identifier, so expansions spliced back
// into surface programs (the shrinker's call-inlining reduction) still
// print and reparse.
func freshIndexName(base string, avoid map[string]bool) string {
	for n := 2; ; n++ {
		cand := fmt.Sprintf("%s_%d", base, n)
		if !avoid[cand] {
			return cand
		}
	}
}
