package vm

import (
	"fmt"
	"testing"

	"refidem/internal/ir"
)

// runAll drives a machine to completion against a flat scalar memory
// keyed by variable name (array elements keyed name,index by the event's
// flat element index), returning the memory and total op count.
func runAll(t *testing.T, m *Machine, mem map[string]int64) int {
	t.Helper()
	key := func(ev Event) string {
		if len(ev.Ref.Var.Dims) == 0 {
			return ev.Ref.Var.Name
		}
		return fmt.Sprintf("%s,%d", ev.Ref.Var.Name, ev.Index)
	}
	ops := 0
	for i := 0; i < 100000; i++ {
		ev, n := m.Step()
		ops += n
		switch ev.Kind {
		case EvDone:
			return ops
		case EvLoad:
			m.ResumeLoad(mem[key(ev)])
		case EvStore:
			mem[key(ev)] = ev.Value
		}
	}
	t.Fatal("machine did not halt")
	return ops
}

func compileBody(t *testing.T, regionIndex string, body ...ir.Stmt) *Code {
	t.Helper()
	return Compile(&ir.Segment{ID: 0, Body: body}, regionIndex)
}

func TestSimpleAssign(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	y := p.AddVar("y")
	code := compileBody(t, "k",
		&ir.Assign{LHS: ir.Wr(x), RHS: ir.AddE(ir.Rd(y), ir.C(5))},
	)
	m := NewMachine(code, 0)
	mem := map[string]int64{"y": 37}
	runAll(t, m, mem)
	if mem["x"] != 42 {
		t.Errorf("x = %d, want 42", mem["x"])
	}
}

func TestRegionIndexRegister(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	code := compileBody(t, "k",
		&ir.Assign{LHS: ir.Wr(x), RHS: ir.MulE(ir.Idx("k"), ir.C(3))},
	)
	m := NewMachine(code, 7)
	mem := map[string]int64{}
	runAll(t, m, mem)
	if mem["x"] != 21 {
		t.Errorf("x = %d, want 21", mem["x"])
	}
}

func TestInnerLoopAscendingAndDescending(t *testing.T) {
	p := ir.NewProgram("t")
	s := p.AddVar("s")
	// s = 0; for j = 1 to 5 { s = s + j }  => 15
	code := compileBody(t, "",
		&ir.Assign{LHS: ir.Wr(s), RHS: ir.C(0)},
		&ir.For{Index: "j", From: 1, To: 5, Step: 1, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(s), RHS: ir.AddE(ir.Rd(s), ir.Idx("j"))},
		}},
	)
	mem := map[string]int64{}
	runAll(t, NewMachine(code, 0), mem)
	if mem["s"] != 15 {
		t.Errorf("ascending: s = %d, want 15", mem["s"])
	}
	// descending: for j = 5 downto 2 step -1 { s = s*10 + j } from 0 =>
	// 5432.
	code2 := compileBody(t, "",
		&ir.Assign{LHS: ir.Wr(s), RHS: ir.C(0)},
		&ir.For{Index: "j", From: 5, To: 2, Step: -1, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(s), RHS: ir.AddE(ir.MulE(ir.Rd(s), ir.C(10)), ir.Idx("j"))},
		}},
	)
	mem2 := map[string]int64{}
	runAll(t, NewMachine(code2, 0), mem2)
	if mem2["s"] != 5432 {
		t.Errorf("descending: s = %d, want 5432", mem2["s"])
	}
}

func TestNestedLoopsAndArrays(t *testing.T) {
	p := ir.NewProgram("t")
	a := p.AddVar("a", 4, 4)
	s := p.AddVar("s")
	code := compileBody(t, "",
		&ir.For{Index: "i", From: 0, To: 2, Step: 1, Body: []ir.Stmt{
			&ir.For{Index: "j", From: 0, To: 2, Step: 1, Body: []ir.Stmt{
				&ir.Assign{LHS: ir.Wr(a, ir.Idx("i"), ir.Idx("j")),
					RHS: ir.AddE(ir.MulE(ir.Idx("i"), ir.C(3)), ir.Idx("j"))},
			}},
		}},
		&ir.Assign{LHS: ir.Wr(s), RHS: ir.Rd(a, ir.C(2), ir.C(1))},
	)
	mem := map[string]int64{}
	runAll(t, NewMachine(code, 0), mem)
	if mem["s"] != 7 {
		t.Errorf("s = %d, want 7", mem["s"])
	}
}

func TestIfElse(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	y := p.AddVar("y")
	mk := func() *Code {
		return compileBody(t, "",
			&ir.If{
				Cond: ir.Op(ir.Gt, ir.Rd(x), ir.C(0)),
				Then: []ir.Stmt{&ir.Assign{LHS: ir.Wr(y), RHS: ir.C(1)}},
				Else: []ir.Stmt{&ir.Assign{LHS: ir.Wr(y), RHS: ir.C(2)}},
			},
		)
	}
	mem := map[string]int64{"x": 5}
	runAll(t, NewMachine(mk(), 0), mem)
	if mem["y"] != 1 {
		t.Errorf("then branch: y = %d", mem["y"])
	}
	mem = map[string]int64{"x": -5}
	runAll(t, NewMachine(mk(), 0), mem)
	if mem["y"] != 2 {
		t.Errorf("else branch: y = %d", mem["y"])
	}
}

func TestIfWithoutElse(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	y := p.AddVar("y")
	code := compileBody(t, "",
		&ir.If{Cond: ir.Rd(x), Then: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(y), RHS: ir.C(9)},
		}},
	)
	mem := map[string]int64{"x": 0, "y": 3}
	runAll(t, NewMachine(code, 0), mem)
	if mem["y"] != 3 {
		t.Errorf("skipped then still ran: y = %d", mem["y"])
	}
}

func TestExitRegion(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	code := compileBody(t, "k",
		&ir.ExitRegion{Cond: ir.Op(ir.Ge, ir.Idx("k"), ir.C(3))},
		&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(1)},
	)
	m := NewMachine(code, 2)
	runAll(t, m, map[string]int64{})
	if m.ExitRequested {
		t.Error("exit should not trigger at k=2")
	}
	m2 := NewMachine(code, 3)
	mem := map[string]int64{}
	runAll(t, m2, mem)
	if !m2.ExitRequested {
		t.Error("exit should trigger at k=3")
	}
	if mem["x"] != 1 {
		t.Error("statements after exit-if must still execute")
	}
}

func TestBranch(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	seg := &ir.Segment{ID: 0, Succs: []int{1, 2}, Branch: ir.Rd(x)}
	code := Compile(seg, "")
	m := NewMachine(code, 0)
	for {
		ev, _ := m.Step()
		if ev.Kind == EvDone {
			break
		}
		if ev.Kind == EvLoad {
			m.ResumeLoad(7)
		}
	}
	if !m.Branched || m.BranchVal != 7 {
		t.Errorf("Branched=%v BranchVal=%d", m.Branched, m.BranchVal)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	code := compileBody(t, "k",
		&ir.Assign{LHS: ir.Wr(x), RHS: ir.AddE(ir.Idx("k"), ir.Rd(x))},
	)
	m := NewMachine(code, 5)
	mem := map[string]int64{"x": 1}
	runAll(t, m, mem)
	if !m.Done() {
		t.Fatal("not done")
	}
	m.Reset()
	if m.Done() || m.PC != 0 || m.Regs[RegionIndexReg] != 5 {
		t.Error("Reset did not restore state")
	}
	mem2 := map[string]int64{"x": 1}
	runAll(t, m, mem2)
	if mem2["x"] != 6 {
		t.Errorf("re-execution: x = %d, want 6", mem2["x"])
	}
}

func TestStepPanicsOnUnresolvedLoad(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	code := compileBody(t, "", &ir.Assign{LHS: ir.Wr(x), RHS: ir.Rd(x)})
	m := NewMachine(code, 0)
	ev, _ := m.Step()
	if ev.Kind != EvLoad {
		t.Fatalf("expected load event, got %v", ev.Kind)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Step()
}

func TestOpCountsArePositive(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	code := compileBody(t, "", &ir.Assign{LHS: ir.Wr(x), RHS: ir.C(1)})
	m := NewMachine(code, 0)
	ev, n := m.Step()
	if ev.Kind != EvStore || n < 1 {
		t.Errorf("ev=%v n=%d", ev.Kind, n)
	}
}
