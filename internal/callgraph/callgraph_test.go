package callgraph

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"refidem/internal/gen"
	"refidem/internal/ir"
	"refidem/internal/lang"
)

func parse(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSummariesBottomUp(t *testing.T) {
	p := parse(t, `program p
var a[32]
var b[32]
var s
var t
proc leaf(x) {
  a[x] = b[x] + 1
}
proc mid(x) {
  t = 0
  call leaf(x)
  s = t + 1
}
region r loop i = 0 to 7 {
  liveout a, s
  call mid(i)
}
`)
	cg := Analyze(p)
	// Bottom-up: leaf before mid.
	if len(cg.Order) != 2 || cg.Order[0].Name != "leaf" || cg.Order[1].Name != "mid" {
		t.Fatalf("Order = %v, want leaf then mid", cg.Order)
	}
	leaf := cg.Summary(p.Proc("leaf"))
	mid := cg.Summary(p.Proc("mid"))
	if got := strings.Join(VarNames(leaf.Writes), ","); got != "a" {
		t.Fatalf("leaf writes %q, want a", got)
	}
	if got := strings.Join(VarNames(leaf.Reads), ","); got != "b" {
		t.Fatalf("leaf reads %q, want b", got)
	}
	// mid inherits leaf's effects transitively.
	if got := strings.Join(VarNames(mid.Writes), ","); got != "a,s,t" {
		t.Fatalf("mid writes %q, want a,s,t", got)
	}
	if got := strings.Join(VarNames(mid.Reads), ","); got != "b,t" {
		t.Fatalf("mid reads %q, want b,t", got)
	}
	if !leaf.ReadOnly(p.Var("b")) || mid.ReadOnly(p.Var("t")) {
		t.Fatalf("read-only classification wrong")
	}
	// t and s are both defined before any read on every path of mid's own
	// body; b is only read through the callee (not covered).
	if !mid.MustWriteFirst[p.Var("t")] || !mid.MustWriteFirst[p.Var("s")] {
		t.Fatalf("mid must-write-first %v, want s and t", mid.MustWriteFirst)
	}
	if mid.MustWriteFirst[p.Var("b")] {
		t.Fatalf("b is read through the callee, not must-written-first")
	}
}

// TestMustWriteFirstSeesNestedCalls: a call exposes everything its callee
// reads transitively, so a scalar read two calls down is not
// must-written-first by a caller that writes it only after the call.
func TestMustWriteFirstSeesNestedCalls(t *testing.T) {
	p := parse(t, `program p
var a[8]
var s
proc g(x) {
  a[x] = s
}
proc f(x) {
  call g(x)
}
proc mid(x) {
  call f(x)
  s = 1
}
region r loop i = 0 to 7 {
  liveout a, s
  call mid(i)
}
`)
	cg := Analyze(p)
	mid := cg.Summary(p.Proc("mid"))
	if got := strings.Join(VarNames(mid.Reads), ","); got != "s" {
		t.Fatalf("mid reads %q, want s", got)
	}
	if len(mid.MustWriteFirst) != 0 {
		t.Errorf("mid must-write-first %v, want empty: f reads s through g before mid writes it",
			VarNames(mid.MustWriteFirst))
	}
}

func TestMayExitPropagates(t *testing.T) {
	p := parse(t, `program p
var s
proc inner(x) {
  exit if s > x
}
proc outer(x) {
  call inner(x)
}
region r loop i = 0 to 7 {
  liveout s
  s = s + i
  call outer(i)
}
`)
	cg := Analyze(p)
	if !cg.Summary(p.Proc("inner")).MayExit || !cg.Summary(p.Proc("outer")).MayExit {
		t.Fatalf("MayExit must propagate to callers")
	}
	if !p.Regions[0].HasEarlyExit() {
		t.Fatalf("region must report the call-carried early exit")
	}
}

func TestAffineParams(t *testing.T) {
	p := parse(t, `program p
var a[64]
var s
proc affine(x) {
  a[2 * x + 1] = 1
}
proc square(x) {
  a[x * x] = 1
}
proc chain(x) {
  call affine(x + 1)
}
proc badchain(x) {
  call square(x)
}
region r loop i = 0 to 3 {
  liveout a
  call affine(i)
  call square(i)
  call chain(i)
  call badchain(i)
  s = i
}
`)
	cg := Analyze(p)
	want := map[string]bool{"affine": true, "square": false, "chain": true, "badchain": false}
	for name, wantOK := range want {
		sum := cg.Summary(p.Proc(name))
		if got := sum.AffineParams["x"]; got != wantOK {
			t.Errorf("%s: AffineParams[x] = %v, want %v", name, got, wantOK)
		}
	}
}

// TestSummaryDigest pins every procedure summary over seeds 1-40 of every
// generator profile: callees, reads, writes, write-first scalars, affine
// parameters, may-exit and the own statement and reference counts, one
// row per procedure in declaration order.
func TestSummaryDigest(t *testing.T) {
	const want = "2ce1ba72aa7994d9349b98ce6d391a1224bc43ce7a74ceb54adf7ead7cde4a31"
	h := sha256.New()
	progs, procs := 0, 0
	for _, prof := range gen.Profiles() {
		for seed := int64(1); seed <= 40; seed++ {
			p := gen.FromProfile(prof, seed).Program
			if err := p.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", prof.Name, seed, err)
			}
			progs++
			cg := Analyze(p)
			for _, pr := range p.Procs {
				procs++
				sum := cg.Summary(pr)
				calls := make([]string, len(sum.Calls))
				for i, c := range sum.Calls {
					calls[i] = c.Name
				}
				var affine []string
				for _, prm := range pr.Params {
					if sum.AffineParams[prm] {
						affine = append(affine, prm)
					}
				}
				fmt.Fprintf(h, "%s|%s|calls=%s|reads=%s|writes=%s|mwf=%s|affine=%s|exit=%v|stmts=%d|refs=%d\n",
					p.Name, pr.Name, strings.Join(calls, ","),
					strings.Join(VarNames(sum.Reads), ","),
					strings.Join(VarNames(sum.Writes), ","),
					strings.Join(VarNames(sum.MustWriteFirst), ","),
					strings.Join(affine, ","), sum.MayExit, sum.OwnStmts, sum.OwnRefs)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("%d programs, %d procedures: digest %s, want %s", progs, procs, got, want)
	}
}
