// Package vm compiles segment bodies to a small register bytecode and
// interprets them as resumable machines. The execution engines (package
// engine) step a machine until its next memory reference, resolve the
// reference against the speculative or non-speculative storage, and resume
// it — which is what makes true speculative execution (stale value
// propagation, rollback, re-execution) simulatable deterministically.
package vm

import (
	"fmt"

	"refidem/internal/ir"
)

// Op is a bytecode opcode.
type Op uint8

const (
	// OpConst loads an immediate into Dst.
	OpConst Op = iota
	// OpBin applies BinOp to registers A and B, result in Dst.
	OpBin
	// OpLoad issues a memory read through Ref at the element its Subs
	// select. The machine pauses; the engine supplies the loaded value,
	// which lands in Dst.
	OpLoad
	// OpStore issues a memory write through Ref of register A's value, at
	// the element its Subs select.
	OpStore
	// OpJump jumps to instruction A.
	OpJump
	// OpJz jumps to instruction B when register A is zero.
	OpJz
	// OpExit requests region exit after this segment completes.
	OpExit
	// OpBranch records register A as the segment's branch value and
	// halts.
	OpBranch
	// OpHalt ends the segment.
	OpHalt
	// OpFusedTest is the peephole fusion of the Const/Bin/Jz triple the
	// compiler emits for loop headers and comparisons against constants:
	// Regs[C] = Val; Regs[Dst] = BinOp(Regs[A], Val); jump to B when
	// zero, else skip the two shadowed instructions. Counts as 3 ops.
	OpFusedTest
	// OpFusedStep is the fusion of the Const/Bin(Add)/Jump loop-tail
	// triple: Regs[C] = Val; Regs[Dst] += Val; jump to A. Counts as 3
	// ops.
	OpFusedStep
	// OpFusedImmR fuses Const/Bin with the constant as right operand:
	// Regs[C] = Val; Regs[Dst] = BinOp(Regs[A], Val). Counts as 2 ops
	// and skips the shadowed Bin.
	OpFusedImmR
	// OpFusedImmL is the left-operand variant:
	// Regs[C] = Val; Regs[Dst] = BinOp(Val, Regs[B]).
	OpFusedImmL
)

var opNames = [...]string{
	OpConst: "const", OpBin: "bin", OpLoad: "load", OpStore: "store",
	OpJump: "jump", OpJz: "jz", OpExit: "exit", OpBranch: "branch", OpHalt: "halt",
	OpFusedTest: "fused-test", OpFusedStep: "fused-step",
	OpFusedImmR: "fused-imm-r", OpFusedImmL: "fused-imm-l",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", o)
}

// Instr is one bytecode instruction.
type Instr struct {
	Op    Op
	BinOp ir.BinOp
	Dst   int
	A     int
	B     int
	// C is the register a fused instruction's shadowed Const writes.
	C   int
	Val int64
	Ref *ir.Ref
	// Subs are a load's or store's subscripts, one per dimension of
	// Ref's variable.
	Subs []Subscript
}

// Subscript is one subscript of a load or store: the register that holds
// its value and the extent of the dimension it indexes. Mask is Size-1
// when Size is a power of two and -1 otherwise.
type Subscript struct {
	Reg  int
	Size int64
	Mask int64
}

// flatIndex is the one address rule: each subscript wraps into its
// dimension (a mask for a power-of-two extent, a modulo rounded toward
// negative infinity otherwise), so no program can leave its variable's
// storage, and the wrapped subscripts flatten row-major.
func flatIndex(subs []Subscript, regs []int64) int64 {
	var idx int64
	for i := range subs {
		d := &subs[i]
		s := regs[d.Reg]
		// In-range subscripts (the overwhelmingly common case) skip the
		// wrap entirely; the unsigned compare also catches negatives.
		if uint64(s) >= uint64(d.Size) {
			if d.Mask >= 0 {
				s &= d.Mask
			} else {
				s %= d.Size
				if s < 0 {
					s += d.Size
				}
			}
		}
		idx = idx*d.Size + s
	}
	return idx
}

// Code is a compiled segment body.
type Code struct {
	Instrs  []Instr
	NumRegs int
}

// RegionIndexReg is the register that holds the region loop index value;
// the engine initializes it per segment instance.
const RegionIndexReg = 0

// compiler carries compilation state.
type compiler struct {
	code    *Code
	nextReg int
	indexes map[string]int // loop index name -> register
}

// Compile translates a segment body (and optional branch expression) to
// bytecode. regionIndex names the loop region's index variable ("" for CFG
// regions).
func Compile(seg *ir.Segment, regionIndex string) *Code {
	c := &compiler{
		code:    &Code{},
		nextReg: 1, // register 0 is the region index
		indexes: map[string]int{},
	}
	if regionIndex != "" {
		c.indexes[regionIndex] = RegionIndexReg
	}
	c.stmts(seg.Body)
	if seg.Branch != nil {
		r := c.expr(seg.Branch)
		c.emit(Instr{Op: OpBranch, A: r})
	} else {
		c.emit(Instr{Op: OpHalt})
	}
	fuse(c.code)
	return c.code
}

// fuse is a peephole pass over compiled code: the two three-instruction
// idioms the compiler emits for inner-loop control (header test, index
// step) collapse into single superinstructions. The shadowed original
// instructions stay in place, so every jump target remains valid — a jump
// into the middle of a fused triple simply executes the originals — and
// the fused ops charge exactly the same 3-instruction cost, keeping cycle
// accounting bit-identical.
func fuse(code *Code) {
	ins := code.Instrs
	// Pass 1: three-instruction loop-control idioms.
	for k := 0; k+2 < len(ins); k++ {
		c, b, j := &ins[k], &ins[k+1], &ins[k+2]
		if c.Op != OpConst || b.Op != OpBin {
			continue
		}
		switch {
		case j.Op == OpJz && b.B == c.Dst && b.A != c.Dst && j.A == b.Dst:
			// Const bound; Bin cond = A <op> bound; Jz cond, target
			ins[k] = Instr{Op: OpFusedTest, Dst: b.Dst, A: b.A, B: j.B,
				C: c.Dst, Val: c.Val, BinOp: b.BinOp}
			k += 2
		case j.Op == OpJump && b.BinOp == ir.Add && b.A == b.Dst && b.B == c.Dst && b.A != c.Dst:
			// Const step; Bin idx = idx + step; Jump target
			ins[k] = Instr{Op: OpFusedStep, Dst: b.Dst, A: j.A,
				C: c.Dst, Val: c.Val}
			k += 2
		}
	}
	// Pass 2: Const feeding an adjacent Bin (constant subscript and
	// expression operands). Writing the constant register first keeps
	// aliasing (A or B naming the constant register) exact.
	for k := 0; k+1 < len(ins); k++ {
		c, b := &ins[k], &ins[k+1]
		if c.Op != OpConst || b.Op != OpBin {
			continue
		}
		switch {
		case b.B == c.Dst:
			ins[k] = Instr{Op: OpFusedImmR, Dst: b.Dst, A: b.A,
				C: c.Dst, Val: c.Val, BinOp: b.BinOp}
			k++
		case b.A == c.Dst:
			ins[k] = Instr{Op: OpFusedImmL, Dst: b.Dst, B: b.B,
				C: c.Dst, Val: c.Val, BinOp: b.BinOp}
			k++
		}
	}
}

func (c *compiler) emit(i Instr) int {
	c.code.Instrs = append(c.code.Instrs, i)
	return len(c.code.Instrs) - 1
}

func (c *compiler) reg() int {
	r := c.nextReg
	c.nextReg++
	if r+1 > c.code.NumRegs {
		c.code.NumRegs = r + 1
	}
	return r
}

func (c *compiler) stmts(stmts []ir.Stmt) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ir.Assign:
			val := c.expr(s.RHS)
			subs := c.subs(s.LHS)
			c.emit(Instr{Op: OpStore, A: val, Ref: s.LHS, Subs: subs})
		case *ir.If:
			cond := c.expr(s.Cond)
			jz := c.emit(Instr{Op: OpJz, A: cond})
			c.stmts(s.Then)
			if len(s.Else) > 0 {
				jmp := c.emit(Instr{Op: OpJump})
				c.code.Instrs[jz].B = len(c.code.Instrs)
				c.stmts(s.Else)
				c.code.Instrs[jmp].A = len(c.code.Instrs)
			} else {
				c.code.Instrs[jz].B = len(c.code.Instrs)
			}
		case *ir.For:
			idx := c.reg()
			prev, shadowed := c.indexes[s.Index]
			c.indexes[s.Index] = idx
			c.emit(Instr{Op: OpConst, Dst: idx, Val: int64(s.From)})
			loopTop := len(c.code.Instrs)
			// Continue while idx <= To (ascending) or idx >= To
			// (descending).
			bound := c.reg()
			c.emit(Instr{Op: OpConst, Dst: bound, Val: int64(s.To)})
			cond := c.reg()
			cmp := ir.Le
			if s.Step < 0 {
				cmp = ir.Ge
			}
			c.emit(Instr{Op: OpBin, Dst: cond, A: idx, B: bound, BinOp: cmp})
			jz := c.emit(Instr{Op: OpJz, A: cond})
			c.stmts(s.Body)
			step := c.reg()
			c.emit(Instr{Op: OpConst, Dst: step, Val: int64(s.Step)})
			c.emit(Instr{Op: OpBin, Dst: idx, A: idx, B: step, BinOp: ir.Add})
			c.emit(Instr{Op: OpJump, A: loopTop})
			c.code.Instrs[jz].B = len(c.code.Instrs)
			if shadowed {
				c.indexes[s.Index] = prev
			} else {
				delete(c.indexes, s.Index)
			}
		case *ir.ExitRegion:
			cond := c.expr(s.Cond)
			jz := c.emit(Instr{Op: OpJz, A: cond})
			c.emit(Instr{Op: OpExit})
			c.code.Instrs[jz].B = len(c.code.Instrs)
		case *ir.Call:
			// Calls compile as their per-callsite expansion (parameters
			// already substituted, loop indices already uncaptured), so
			// the interpreter needs no frames and the hot loop is
			// untouched. Finalize numbered exactly these references.
			if s.Inlined == nil {
				panic(fmt.Sprintf("vm: call to %q has no expansion (unresolved or recursive)", s.Callee))
			}
			c.stmts(s.Inlined)
		default:
			panic(fmt.Sprintf("vm: unknown statement %T", st))
		}
	}
}

func (c *compiler) expr(e ir.Expr) int {
	switch x := e.(type) {
	case *ir.Const:
		r := c.reg()
		c.emit(Instr{Op: OpConst, Dst: r, Val: x.Val})
		return r
	case *ir.Index:
		r, ok := c.indexes[x.Name]
		if !ok {
			panic(fmt.Sprintf("vm: unknown index %q", x.Name))
		}
		return r
	case *ir.Load:
		subs := c.subs(x.Ref)
		r := c.reg()
		c.emit(Instr{Op: OpLoad, Dst: r, Ref: x.Ref, Subs: subs})
		return r
	case *ir.Bin:
		l := c.expr(x.L)
		rr := c.expr(x.R)
		r := c.reg()
		c.emit(Instr{Op: OpBin, Dst: r, A: l, B: rr, BinOp: x.Op})
		return r
	}
	panic(fmt.Sprintf("vm: unknown expression %T", e))
}

// subs compiles a reference's subscript expressions, in order, and pairs
// each value register with the extent and wrap mask of its dimension.
func (c *compiler) subs(ref *ir.Ref) []Subscript {
	dims := ref.Var.Dims
	if len(ref.Subs) != len(dims) {
		panic(fmt.Sprintf("vm: %d subscripts for %d-dimensional %q", len(ref.Subs), len(dims), ref.Var.Name))
	}
	out := make([]Subscript, len(dims))
	for i, e := range ref.Subs {
		size := int64(dims[i])
		out[i] = Subscript{Reg: c.expr(e), Size: size, Mask: -1}
		if size > 0 && size&(size-1) == 0 {
			out[i].Mask = size - 1
		}
	}
	return out
}

// EventKind classifies what a machine paused for.
type EventKind uint8

const (
	// EvLoad: the machine needs the value of Ref's element Index; resume
	// with ResumeLoad.
	EvLoad EventKind = iota
	// EvStore: the machine wrote Value to Ref's element Index; no resume
	// data needed.
	EvStore
	// EvDone: the segment finished.
	EvDone
)

// Event is what Machine.Step returns when it pauses. Index is the
// element of Ref's variable a load or store touches, under flatIndex's
// rule (0 for a scalar); an engine adds it to the variable's base.
type Event struct {
	Kind  EventKind
	Ref   *ir.Ref
	Index int64
	Value int64
}

// Machine is a resumable interpreter over compiled code.
type Machine struct {
	Code *Code
	PC   int
	Regs []int64
	// ExitRequested is set when an OpExit executed.
	ExitRequested bool
	// BranchVal holds the OpBranch value; Branched reports one executed.
	BranchVal int64
	Branched  bool
	done      bool

	pendingLoad bool
	pendingDst  int
}

// NewMachine creates a machine for the code with the region index value.
func NewMachine(code *Code, indexVal int64) *Machine {
	m := &Machine{Code: code, Regs: make([]int64, maxInt(code.NumRegs, 1))}
	m.Regs[RegionIndexReg] = indexVal
	return m
}

// Reinit repoints the machine at (possibly different) code with a new
// region index value, reusing the register file. It is the pooling
// counterpart of NewMachine: recycled machines are Reinit-ed instead of
// reallocated.
func (m *Machine) Reinit(code *Code, indexVal int64) {
	m.Code = code
	n := maxInt(code.NumRegs, 1)
	if cap(m.Regs) < n {
		m.Regs = make([]int64, n)
	} else {
		m.Regs = m.Regs[:n]
		for i := range m.Regs {
			m.Regs[i] = 0
		}
	}
	m.Regs[RegionIndexReg] = indexVal
	m.PC = 0
	m.ExitRequested = false
	m.BranchVal = 0
	m.Branched = false
	m.done = false
	m.pendingLoad = false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Reset rewinds the machine to its initial state (used on rollback),
// preserving the region index value.
func (m *Machine) Reset() {
	idx := m.Regs[RegionIndexReg]
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	m.Regs[RegionIndexReg] = idx
	m.PC = 0
	m.ExitRequested = false
	m.BranchVal = 0
	m.Branched = false
	m.done = false
	m.pendingLoad = false
}

// Done reports whether the machine has halted.
func (m *Machine) Done() bool { return m.done }

// ResumeLoad supplies the value for the pending load.
func (m *Machine) ResumeLoad(val int64) {
	if !m.pendingLoad {
		panic("vm: ResumeLoad without pending load")
	}
	m.Regs[m.pendingDst] = val
	m.pendingLoad = false
}

// Step runs instructions until the next memory event or completion. It
// returns the event and the number of non-memory instructions executed
// (for cycle accounting). Calling Step with an unresolved load panics.
func (m *Machine) Step() (Event, int) {
	var ev Event
	ops := m.StepInto(&ev)
	return ev, ops
}

// StepInto is Step writing the event into caller-owned storage, sparing
// the hot engine loop a 32-byte struct copy per event.
func (m *Machine) StepInto(ev *Event) int {
	if m.pendingLoad {
		panic("vm: Step with unresolved load")
	}
	ops := 0
	// Hot interpreter loop: the program counter, instruction stream and
	// register file live in locals so the compiler can keep them in
	// registers; m.PC is written back at every exit point.
	pc := m.PC
	instrs := m.Code.Instrs
	regs := m.Regs
	for {
		if m.done {
			m.PC = pc
			*ev = Event{Kind: EvDone}
			return ops
		}
		if pc >= len(instrs) {
			m.done = true
			m.PC = pc
			*ev = Event{Kind: EvDone}
			return ops
		}
		in := &instrs[pc]
		switch in.Op {
		case OpConst:
			regs[in.Dst] = in.Val
			pc++
			ops++
		case OpBin:
			// Inline dispatch for the dominant arithmetic ops; the rest
			// (comparisons, div, mod, ...) go through BinOp.Apply.
			a, b := regs[in.A], regs[in.B]
			var v int64
			switch in.BinOp {
			case ir.Add:
				v = a + b
			case ir.Sub:
				v = a - b
			case ir.Mul:
				v = a * b
			default:
				v = in.BinOp.Apply(a, b)
			}
			regs[in.Dst] = v
			pc++
			ops++
		case OpJump:
			pc = in.A
			ops++
		case OpJz:
			if regs[in.A] == 0 {
				pc = in.B
			} else {
				pc++
			}
			ops++
		case OpExit:
			m.ExitRequested = true
			pc++
			ops++
		case OpLoad:
			m.pendingLoad = true
			m.pendingDst = in.Dst
			m.PC = pc + 1
			*ev = Event{Kind: EvLoad, Ref: in.Ref, Index: flatIndex(in.Subs, regs)}
			return ops + 1
		case OpStore:
			m.PC = pc + 1
			*ev = Event{Kind: EvStore, Ref: in.Ref, Index: flatIndex(in.Subs, regs), Value: regs[in.A]}
			return ops + 1
		case OpBranch:
			m.BranchVal = regs[in.A]
			m.Branched = true
			m.done = true
			m.PC = pc
			*ev = Event{Kind: EvDone}
			return ops + 1
		case OpHalt:
			m.done = true
			m.PC = pc
			*ev = Event{Kind: EvDone}
			return ops + 1
		case OpFusedTest:
			regs[in.C] = in.Val
			cond := in.BinOp.Apply(regs[in.A], in.Val)
			regs[in.Dst] = cond
			if cond == 0 {
				pc = in.B
			} else {
				pc += 3
			}
			ops += 3
		case OpFusedStep:
			regs[in.C] = in.Val
			regs[in.Dst] += in.Val
			pc = in.A
			ops += 3
		case OpFusedImmR:
			regs[in.C] = in.Val
			a := regs[in.A]
			var v int64
			switch in.BinOp {
			case ir.Add:
				v = a + in.Val
			case ir.Sub:
				v = a - in.Val
			case ir.Mul:
				v = a * in.Val
			default:
				v = in.BinOp.Apply(a, in.Val)
			}
			regs[in.Dst] = v
			pc += 2
			ops += 2
		case OpFusedImmL:
			regs[in.C] = in.Val
			b := regs[in.B]
			var v int64
			switch in.BinOp {
			case ir.Add:
				v = in.Val + b
			case ir.Sub:
				v = in.Val - b
			case ir.Mul:
				v = in.Val * b
			default:
				v = in.BinOp.Apply(in.Val, b)
			}
			regs[in.Dst] = v
			pc += 2
			ops += 2
		default:
			panic(fmt.Sprintf("vm: unknown opcode %v", in.Op))
		}
	}
}
