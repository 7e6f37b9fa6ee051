package ir

import (
	"fmt"
	"strings"
)

// Validate checks structural invariants of the program and returns the
// first violation found. It must pass before analyses or execution run.
func (p *Program) Validate() error {
	seen := make(map[string]bool)
	for _, v := range p.Vars {
		if v.Name == "" {
			return fmt.Errorf("ir: unnamed variable")
		}
		if seen[v.Name] {
			return fmt.Errorf("ir: duplicate variable %q", v.Name)
		}
		seen[v.Name] = true
		for _, d := range v.Dims {
			if d <= 0 {
				return fmt.Errorf("ir: variable %q: non-positive dimension %d", v.Name, d)
			}
		}
	}
	procNames := make(map[string]bool)
	for _, pr := range p.Procs {
		if pr.Name == "" {
			return fmt.Errorf("ir: unnamed procedure")
		}
		if procNames[pr.Name] {
			return fmt.Errorf("ir: duplicate procedure %q", pr.Name)
		}
		procNames[pr.Name] = true
		if err := p.validateProc(pr); err != nil {
			return fmt.Errorf("procedure %q: %w", pr.Name, err)
		}
	}
	if cyc := p.RecursionCycle(); cyc != nil {
		return fmt.Errorf("ir: recursive procedure call cycle: %s", strings.Join(cyc, " -> "))
	}
	names := make(map[string]bool)
	for _, r := range p.Regions {
		if names[r.Name] {
			return fmt.Errorf("ir: duplicate region %q", r.Name)
		}
		names[r.Name] = true
		if err := p.validateRegion(r); err != nil {
			return fmt.Errorf("region %q: %w", r.Name, err)
		}
	}
	return nil
}

func (p *Program) validateRegion(r *Region) error {
	if len(r.Segments) == 0 {
		return fmt.Errorf("ir: no segments")
	}
	if len(r.Refs) == 0 {
		// Finalize not run or empty region; run it so Refs is populated.
		r.Finalize()
	}
	switch r.Kind {
	case LoopRegion:
		if len(r.Segments) != 1 {
			return fmt.Errorf("ir: loop region must have exactly one segment template, has %d", len(r.Segments))
		}
		if r.Step == 0 {
			return fmt.Errorf("ir: loop region step is zero")
		}
		if r.Index == "" {
			return fmt.Errorf("ir: loop region has no index variable")
		}
		if r.InstanceCount() == 0 {
			return fmt.Errorf("ir: loop region %d..%d step %d has zero iterations", r.From, r.To, r.Step)
		}
	case CFGRegion:
		ids := make(map[int]bool)
		for _, s := range r.Segments {
			if ids[s.ID] {
				return fmt.Errorf("ir: duplicate segment id %d", s.ID)
			}
			ids[s.ID] = true
		}
		for _, s := range r.Segments {
			for _, succ := range s.Succs {
				if !ids[succ] {
					return fmt.Errorf("ir: segment %d: unknown successor %d", s.ID, succ)
				}
			}
			switch {
			case len(s.Succs) > 2:
				return fmt.Errorf("ir: segment %d: more than two successors", s.ID)
			case len(s.Succs) == 2 && s.Branch == nil:
				return fmt.Errorf("ir: segment %d: two successors but no branch condition", s.ID)
			case len(s.Succs) < 2 && s.Branch != nil:
				return fmt.Errorf("ir: segment %d: branch condition with %d successors", s.ID, len(s.Succs))
			}
		}
		if err := checkDAG(r); err != nil {
			return err
		}
	default:
		return fmt.Errorf("ir: unknown region kind %d", r.Kind)
	}
	// Check statements and references.
	for _, s := range r.Segments {
		if err := p.validateStmts(r, s.Body, map[string]bool{r.Index: r.Kind == LoopRegion}); err != nil {
			return fmt.Errorf("segment %d: %w", s.ID, err)
		}
	}
	for _, ref := range r.Refs {
		if ref.Var == nil {
			return fmt.Errorf("ir: reference #%d has no variable", ref.ID)
		}
		if p.Var(ref.Var.Name) != ref.Var {
			return fmt.Errorf("ir: reference #%d: variable %q not in program table", ref.ID, ref.Var.Name)
		}
		if len(ref.Subs) != len(ref.Var.Dims) {
			return fmt.Errorf("ir: reference #%d: %d subscripts for %d-dimensional %q",
				ref.ID, len(ref.Subs), len(ref.Var.Dims), ref.Var.Name)
		}
		// Ctx.Loops counts the loops reached through call expansion too.
		if len(ref.Ctx.Loops) > MaxAffDepth {
			return fmt.Errorf("ir: reference #%d: loop nest depth %d exceeds %d",
				ref.ID, len(ref.Ctx.Loops), MaxAffDepth)
		}
	}
	return nil
}

func (p *Program) validateStmts(r *Region, stmts []Stmt, indices map[string]bool) error {
	for _, st := range stmts {
		switch s := st.(type) {
		case *Assign:
			if s.LHS == nil || s.LHS.Access != Write {
				return fmt.Errorf("ir: assignment LHS must be a write reference")
			}
			if err := p.validateExpr(s.RHS, indices); err != nil {
				return err
			}
			for _, sub := range s.LHS.Subs {
				if err := p.validateExpr(sub, indices); err != nil {
					return err
				}
			}
		case *If:
			if err := p.validateExpr(s.Cond, indices); err != nil {
				return err
			}
			if err := p.validateStmts(r, s.Then, indices); err != nil {
				return err
			}
			if err := p.validateStmts(r, s.Else, indices); err != nil {
				return err
			}
		case *For:
			if s.Step == 0 {
				return fmt.Errorf("ir: inner loop %q has zero step", s.Index)
			}
			if s.Index == "" {
				return fmt.Errorf("ir: inner loop without index name")
			}
			if (LoopInfo{From: s.From, To: s.To, Step: s.Step}).Trips() == 0 {
				return fmt.Errorf("ir: inner loop %q executes zero iterations", s.Index)
			}
			if indices[s.Index] {
				return fmt.Errorf("ir: inner loop index %q shadows an enclosing index", s.Index)
			}
			indices[s.Index] = true
			err := p.validateStmts(r, s.Body, indices)
			delete(indices, s.Index)
			if err != nil {
				return err
			}
		case *ExitRegion:
			if err := p.validateExpr(s.Cond, indices); err != nil {
				return err
			}
		case *Call:
			if err := p.validateCall(r, s, indices); err != nil {
				return err
			}
		default:
			return fmt.Errorf("ir: unknown statement %T", st)
		}
	}
	return nil
}

// validateProc checks one procedure: distinct parameter names that do not
// collide with program variables (a bare name inside the body must
// resolve unambiguously), and a valid body with the parameters in scope
// as index names.
func (p *Program) validateProc(pr *Proc) error {
	seen := make(map[string]bool, len(pr.Params))
	indices := make(map[string]bool, len(pr.Params))
	for _, prm := range pr.Params {
		if prm == "" {
			return fmt.Errorf("ir: empty parameter name")
		}
		if seen[prm] {
			return fmt.Errorf("ir: duplicate parameter %q", prm)
		}
		seen[prm] = true
		if p.Var(prm) != nil {
			return fmt.Errorf("ir: parameter %q collides with a variable", prm)
		}
		indices[prm] = true
	}
	return p.validateStmts(nil, pr.Body, indices)
}

// validateCall checks one call statement: the callee resolves into the
// program's procedure table, arity matches, arguments are load-free index
// expressions, and in a region (r non-nil) Finalize has expanded the call
// after it was resolved, into a valid expansion.
func (p *Program) validateCall(r *Region, s *Call, indices map[string]bool) error {
	pr := s.Proc
	if pr == nil {
		return fmt.Errorf("ir: call to unknown procedure %q", s.Callee)
	}
	if p.Proc(s.Callee) != pr {
		return fmt.Errorf("ir: call to %q resolves outside the program's procedure table", s.Callee)
	}
	if len(s.Args) != len(pr.Params) {
		return fmt.Errorf("ir: call to %q: %d arguments for %d parameters", s.Callee, len(s.Args), len(pr.Params))
	}
	for i, a := range s.Args {
		if err := p.validateExpr(a, indices); err != nil {
			return err
		}
		if HasLoad(a) {
			return fmt.Errorf("ir: call to %q: argument %d reads memory (arguments must be index expressions)", s.Callee, i+1)
		}
	}
	if s.Inlined == nil {
		if r != nil {
			return fmt.Errorf("ir: call to %q has no expansion (finalize the region after resolving its calls)", s.Callee)
		}
		return nil
	}
	if err := p.validateStmts(r, s.Inlined, indices); err != nil {
		return fmt.Errorf("inlined call to %q: %w", s.Callee, err)
	}
	return nil
}

// HasLoad reports whether the expression contains a memory load. Call
// arguments must be load-free (the front end and Validate both enforce
// it): substitution then preserves by-value semantics and affine forms.
func HasLoad(e Expr) bool {
	switch x := e.(type) {
	case *Load:
		return true
	case *Bin:
		return HasLoad(x.L) || HasLoad(x.R)
	}
	return false
}

func (p *Program) validateExpr(e Expr, indices map[string]bool) error {
	if e == nil {
		return fmt.Errorf("ir: nil expression")
	}
	switch x := e.(type) {
	case *Const:
		return nil
	case *Index:
		if !indices[x.Name] {
			return fmt.Errorf("ir: unknown loop index %q", x.Name)
		}
		return nil
	case *Load:
		if x.Ref == nil || x.Ref.Access != Read {
			return fmt.Errorf("ir: load must wrap a read reference")
		}
		for _, sub := range x.Ref.Subs {
			if err := p.validateExpr(sub, indices); err != nil {
				return err
			}
		}
		return nil
	case *Bin:
		if err := p.validateExpr(x.L, indices); err != nil {
			return err
		}
		return p.validateExpr(x.R, indices)
	}
	return fmt.Errorf("ir: unknown expression %T", e)
}

// checkDAG verifies the CFG region's segment graph is acyclic and that age
// (declaration) order is a valid topological order, i.e. every edge goes
// from an older to a younger segment, matching sequential program order.
func checkDAG(r *Region) error {
	pos := make(map[int]int, len(r.Segments))
	for i, s := range r.Segments {
		pos[s.ID] = i
	}
	for _, s := range r.Segments {
		for _, succ := range s.Succs {
			if pos[succ] <= pos[s.ID] {
				return fmt.Errorf("ir: edge %d->%d violates age order (segments must be declared oldest first)", s.ID, succ)
			}
		}
	}
	return nil
}
