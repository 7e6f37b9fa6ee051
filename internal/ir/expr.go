package ir

import (
	"fmt"
	"strconv"
)

// Expr is an expression tree node. Expressions appear as assignment
// right-hand sides, conditions, and array subscripts. Values are int64;
// comparison and logical operators yield 0 or 1.
type Expr interface {
	isExpr()
	String() string
}

// Const is an integer literal.
type Const struct{ Val int64 }

// Index reads a loop index variable: the region index of a LoopRegion or
// an inner For loop index. Loop indices are maintained by the execution
// engine outside speculative storage (the paper's architecture guarantees
// loop variables are non-speculative).
type Index struct{ Name string }

// Load reads memory through a Ref (which must have Access == Read).
type Load struct{ Ref *Ref }

// Bin applies a binary operator.
type Bin struct {
	Op BinOp
	L  Expr
	R  Expr
}

func (*Const) isExpr() {}
func (*Index) isExpr() {}
func (*Load) isExpr()  {}
func (*Bin) isExpr()   {}

func (e *Const) String() string { return strconv.FormatInt(e.Val, 10) }
func (e *Index) String() string { return e.Name }
func (e *Load) String() string  { return string(e.Ref.appendText(nil)) }
func (e *Bin) String() string   { return string(appendExpr(nil, e)) }

// appendExpr appends e's source text to b: the one expression printer,
// behind the String methods of compound expressions and every
// reference's subscripts. A binary operation prints fully parenthesized,
// "(i + 1)".
func appendExpr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case *Const:
		return strconv.AppendInt(b, e.Val, 10)
	case *Index:
		return append(b, e.Name...)
	case *Load:
		return e.Ref.appendText(b)
	case *Bin:
		b = append(b, '(')
		b = appendExpr(b, e.L)
		b = append(b, ' ')
		b = append(b, e.Op.String()...)
		b = append(b, ' ')
		b = appendExpr(b, e.R)
		return append(b, ')')
	}
	panic("ir: unknown expression type") // Expr is sealed by isExpr
}

// BinOp enumerates the binary operators of the expression language.
type BinOp uint8

const (
	Add BinOp = iota
	Sub
	Mul
	Div // integer division; division by zero yields 0 (defined semantics for synthetic programs)
	Mod // remainder; x mod 0 yields 0
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	And // logical: non-zero operands
	Or
)

var binOpNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%",
	Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "==", Ne: "!=",
	And: "&&", Or: "||",
}

func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// Apply evaluates the operator on two values with the language's total
// semantics (division and modulo by zero yield zero).
func (op BinOp) Apply(a, b int64) int64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	case Mod:
		if b == 0 {
			return 0
		}
		return a % b
	case Lt:
		return b2i(a < b)
	case Le:
		return b2i(a <= b)
	case Gt:
		return b2i(a > b)
	case Ge:
		return b2i(a >= b)
	case Eq:
		return b2i(a == b)
	case Ne:
		return b2i(a != b)
	case And:
		return b2i(a != 0 && b != 0)
	case Or:
		return b2i(a != 0 || b != 0)
	}
	panic(fmt.Sprintf("ir: unknown operator %d", op))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ExprRefs returns the Read references contained in the expression, in
// left-to-right (evaluation) order.
func ExprRefs(e Expr) []*Ref {
	var out []*Ref
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Load:
			for _, sub := range x.Ref.Subs {
				walk(sub)
			}
			out = append(out, x.Ref)
		case *Bin:
			walk(x.L)
			walk(x.R)
		}
	}
	walk(e)
	return out
}

// Affine is the canonical form c0 + sum(Coeff[idx] * idx) of a subscript
// expression that is linear in loop index variables and contains no memory
// loads. References whose every subscript has an Affine form have certain
// addresses: re-executing the segment recomputes the same address, because
// loop indices are non-speculative (paper §4.2.2).
type Affine struct {
	Const int64
	Coeff map[string]int64
}

// AffineOf decomposes e into affine form. The second result is false when
// the expression is not affine (contains loads, non-linear terms, division,
// or comparisons).
func AffineOf(e Expr) (Affine, bool) {
	switch x := e.(type) {
	case *Const:
		return Affine{Const: x.Val}, true
	case *Index:
		return Affine{Coeff: map[string]int64{x.Name: 1}}, true
	case *Load:
		return Affine{}, false
	case *Bin:
		l, lok := AffineOf(x.L)
		r, rok := AffineOf(x.R)
		if !lok || !rok {
			return Affine{}, false
		}
		switch x.Op {
		case Add:
			return affAdd(l, r, 1), true
		case Sub:
			return affAdd(l, r, -1), true
		case Mul:
			if len(l.Coeff) == 0 {
				return affScale(r, l.Const), true
			}
			if len(r.Coeff) == 0 {
				return affScale(l, r.Const), true
			}
			return Affine{}, false
		default:
			return Affine{}, false
		}
	}
	return Affine{}, false
}

func affAdd(a, b Affine, sign int64) Affine {
	out := Affine{Const: a.Const + sign*b.Const, Coeff: map[string]int64{}}
	for k, v := range a.Coeff {
		out.Coeff[k] += v
	}
	for k, v := range b.Coeff {
		out.Coeff[k] += sign * v
	}
	for k, v := range out.Coeff {
		if v == 0 {
			delete(out.Coeff, k)
		}
	}
	return out
}

func affScale(a Affine, c int64) Affine {
	out := Affine{Const: a.Const * c, Coeff: map[string]int64{}}
	for k, v := range a.Coeff {
		if v*c != 0 {
			out.Coeff[k] = v * c
		}
	}
	return out
}

// Coefficient returns the coefficient of the named index (0 if absent).
func (a Affine) Coefficient(idx string) int64 {
	if a.Coeff == nil {
		return 0
	}
	return a.Coeff[idx]
}

// AddrCertain reports whether every subscript of the reference is affine in
// loop indices, so that the reference is guaranteed to access the same
// location in a misspeculated and in the final execution. Scalar
// references are always certain.
func AddrCertain(r *Ref) bool {
	for _, sub := range r.Subs {
		if _, ok := AffineOf(sub); !ok {
			return false
		}
	}
	return true
}

// RefAffine returns the per-dimension affine forms of the reference's
// subscripts, or nil if any dimension is not affine.
func RefAffine(r *Ref) []Affine {
	out := make([]Affine, 0, len(r.Subs))
	for _, sub := range r.Subs {
		a, ok := AffineOf(sub)
		if !ok {
			return nil
		}
		out = append(out, a)
	}
	return out
}

// Convenience constructors, used heavily by workloads and tests.

// C returns a constant expression.
func C(v int64) Expr { return &Const{Val: v} }

// Idx returns a loop-index expression.
func Idx(name string) Expr { return &Index{Name: name} }

// Rd returns a Load of a new Read reference to v with the given subscripts.
func Rd(v *Var, subs ...Expr) Expr {
	return &Load{Ref: &Ref{Var: v, Access: Read, Subs: subs}}
}

// Wr returns a new Write reference to v with the given subscripts.
func Wr(v *Var, subs ...Expr) *Ref {
	return &Ref{Var: v, Access: Write, Subs: subs}
}

// Op builds a binary expression.
func Op(op BinOp, l, r Expr) Expr { return &Bin{Op: op, L: l, R: r} }

// AddE builds l + r.
func AddE(l, r Expr) Expr { return Op(Add, l, r) }

// SubE builds l - r.
func SubE(l, r Expr) Expr { return Op(Sub, l, r) }

// MulE builds l * r.
func MulE(l, r Expr) Expr { return Op(Mul, l, r) }
