package lang

import (
	"fmt"
	"strings"
	"testing"

	"refidem/internal/engine"
	"refidem/internal/gen"
	"refidem/internal/idem"
	"refidem/internal/ir"
)

const sample = `
program demo
var a[16]
var b[16]
var t
# a comment
region main loop k = 0 to 15 {
  private t
  liveout a
  t = b[k] + 1
  if t > 0 {
    a[k] = t * 2
  } else {
    a[k] = 0 - t
  }
  for j = 1 to 3 {
    a[k] = a[k] + j
  }
}
`

func TestParseSample(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" || len(p.Vars) != 3 || len(p.Regions) != 1 {
		t.Fatalf("program shape: %s %d vars %d regions", p.Name, len(p.Vars), len(p.Regions))
	}
	r := p.Regions[0]
	if r.Kind != ir.LoopRegion || r.Index != "k" || r.From != 0 || r.To != 15 || r.Step != 1 {
		t.Errorf("loop header: %+v", r)
	}
	if !r.Ann.Private["t"] || !r.Ann.LiveOut["a"] {
		t.Errorf("annotations: %+v", r.Ann)
	}
	if len(r.Refs) == 0 {
		t.Error("no references collected")
	}
}

func TestParsedProgramExecutes(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	labs := idem.LabelProgram(p)
	cfg := engine.DefaultConfig()
	seq, err := engine.RunSequential(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []engine.Mode{engine.HOSE, engine.CASE} {
		res, err := engine.RunSpeculative(p, labs, cfg, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := engine.LiveOutMismatch(p, labs, seq, res); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

func TestParseCFGRegion(t *testing.T) {
	src := `
program g
var x
var y
region r cfg {
  liveout x, y
  segment head {
    x = 1
  } goto left if x else right
  segment left {
    y = 10
  } goto tail
  segment right {
    y = 20
  } goto tail
  segment tail {
    x = y + 1
  }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Regions[0]
	if r.Kind != ir.CFGRegion || len(r.Segments) != 4 {
		t.Fatalf("region shape: %v %d", r.Kind, len(r.Segments))
	}
	head := r.Segments[0]
	if len(head.Succs) != 2 || head.Branch == nil {
		t.Errorf("head: succs=%v branch=%v", head.Succs, head.Branch)
	}
	if r.Segments[1].Succs[0] != 3 || r.Segments[2].Succs[0] != 3 {
		t.Errorf("arms should join at tail")
	}
}

func TestParseDowntoAndStep(t *testing.T) {
	src := `
program g
var a[64]
region r loop k = 30 downto 2 {
  a[k] = k
  for j = 0 to 10 step 2 {
    a[j] = j
  }
  for i = 9 downto 1 step 3 {
    a[i] = i
  }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Regions[0]
	if r.From != 30 || r.To != 2 || r.Step != -1 {
		t.Errorf("downto header: %d %d %d", r.From, r.To, r.Step)
	}
	var fors []*ir.For
	ir.WalkStmts(r.Segments[0].Body, func(s ir.Stmt) {
		if f, ok := s.(*ir.For); ok {
			fors = append(fors, f)
		}
	})
	if len(fors) != 2 || fors[0].Step != 2 || fors[1].Step != -3 {
		t.Errorf("for steps: %+v", fors)
	}
}

func TestParseExitIf(t *testing.T) {
	src := `
program g
var a[32]
region r loop k = 0 to 9 {
  a[k] = k
  exit if a[k] > 5
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Regions[0].HasEarlyExit() {
		t.Error("exit if not parsed")
	}
}

func TestExprPrecedence(t *testing.T) {
	src := `
program g
var x
var y
region r loop k = 0 to 1 {
  x = 1 + 2 * 3
  y = (1 + 2) * 3
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := p.Regions[0].Segments[0].Body
	a1 := body[0].(*ir.Assign).RHS.(*ir.Bin)
	if a1.Op != ir.Add {
		t.Errorf("1+2*3 should parse as Add at top, got %v", a1.Op)
	}
	a2 := body[1].(*ir.Assign).RHS.(*ir.Bin)
	if a2.Op != ir.Mul {
		t.Errorf("(1+2)*3 should parse as Mul at top, got %v", a2.Op)
	}
}

func TestNegativeLiterals(t *testing.T) {
	src := `
program g
var x
region r loop k = 0 to 1 {
  x = -5
  x = -x
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := p.Regions[0].Segments[0].Body
	if c, ok := body[0].(*ir.Assign).RHS.(*ir.Const); !ok || c.Val != -5 {
		t.Errorf("-5 literal: %v", body[0].(*ir.Assign).RHS)
	}
}

// loopNest wraps body in n inner loops with indices prefix0, prefix1, ...
func loopNest(prefix string, n int, body string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "for %s%d = 0 to 1 { ", prefix, i)
	}
	return b.String() + body + strings.Repeat(" }", n)
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"program", "expected identifier"},
		{"program p var x[0]", "must be positive"},
		{"program p var x var x", "redeclared"},
		{"program p region r loop k = 1 to 2 { y = 1 }", "undeclared"},
		{"program p var a[4] region r loop k = 1 to 2 { a = 1 }", "dimensions"},
		{"program p var x region r loop k = 1 to 2 { x = z }", "unknown identifier"},
		{"program p var x region r cfg { segment a { x = 1 } goto nope }", "unknown segment"},
		{"program p var x region r loop k = 1 to 2 step 0 { x = 1 }", "step must be positive"},
		{"program p var x region r loop k = 1 to 2 { for k = 1 to 2 { x = 1 } }", "shadows"},
		{"program p @", "unexpected character"},
		{"program p var x region r loop k = 2 to 1 { x = 1 }", "zero iterations"},
		{"program p var a[4] region r loop k = 0 to 1 { " + loopNest("j", 9, "a[j0] = a[j0] + 1") + " }",
			"ir: reference #0: loop nest depth 9 exceeds 8"},
		{"program p var a[4] proc f(q) { " + loopNest("i", 5, "a[q] = a[q] + 1") +
			" } region r loop k = 0 to 1 { " + loopNest("j", 4, "call f(j0)") + " }",
			"ir: reference #0: loop nest depth 9 exceeds 8"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

// TestNonASCIIErrors pins the errors for bytes outside ASCII. Identifiers
// are ASCII, so such a byte is an unexpected character wherever it
// appears, quoted as the UTF-8 character it starts or, when it starts
// none, as the lone byte.
func TestNonASCIIErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"program \xe9", `1:9: unexpected character "\xe9"`},
		{"program \u00e9", `1:9: unexpected character "é"`},
		{"program p \xa9", `1:11: unexpected character "\xa9"`},
		{"program p\nvar b\nregion r loop i = 0 to 1 {\n  private \xe9, b\n  b = 1\n}\n",
			`4:11: unexpected character "\xe9"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestIntegerLiteralRange pins the error for an integer literal above
// MaxInt64, positioned at its first digit, and checks that MaxInt64
// itself still parses and prints back unchanged.
func TestIntegerLiteralRange(t *testing.T) {
	cases := []struct{ src, want string }{
		{"program p\nvar x\nregion r loop i = 0 to 1 {\n  x = 99999999999999999999\n}\n",
			`4:7: integer literal 99999999999999999999 out of range`},
		{"program p\nvar x\nregion r loop k = 0 to 18446744073709551617 {\n  x = k\n}\n",
			`3:24: integer literal 18446744073709551617 out of range`},
		{"program p\nvar x\nregion r loop i = 0 to 1 {\n  x = -9223372036854775808\n}\n",
			`4:8: integer literal 9223372036854775808 out of range`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error = %v, want %s", c.src, err, c.want)
		}
	}
	src := "program p\nvar x\nregion r loop i = 0 to 1 {\n  x = 9223372036854775807\n}\n"
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(MaxInt64): %v", err)
	}
	if text := p.Format(); !strings.Contains(text, "x = 9223372036854775807\n") {
		t.Errorf("MaxInt64 did not print back unchanged:\n%s", text)
	}
}

// TestLexerOperators checks that every operator lexes to its own text and
// that lexing operators allocates nothing: their tokens slice the source.
func TestLexerOperators(t *testing.T) {
	ops := []string{"==", "!=", "<=", ">=", "&&", "||", "=", "+", "-", "*", "/", "%",
		"<", ">", "(", ")", "{", "}", "[", "]", ","}
	src := strings.Join(ops, " ") + " <== =="
	want := append(ops, "<=", "=", "==")
	lx := newLexer(src)
	for i := 0; ; i++ {
		tok, err := lx.next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.kind == tokEOF {
			if i != len(want) {
				t.Fatalf("lexed %d tokens, want %d", i, len(want))
			}
			break
		}
		if i >= len(want) || tok.kind != tokPunct || tok.text != want[i] {
			t.Fatalf("token %d = %v, want %q", i, tok, want[i])
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		lx := newLexer(src)
		for {
			if tok, err := lx.next(); err != nil || tok.kind == tokEOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("lexing operators allocated %.0f times, want 0", allocs)
	}
}

func TestMustParsePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustParse("program")
}

// TestRoundTrip: Format output re-parses to a program that formats
// identically, for hand-written and generated programs alike.
func TestRoundTrip(t *testing.T) {
	srcs := []string{sample}
	gc := gen.Default()
	for seed := int64(0); seed < 60; seed++ {
		srcs = append(srcs, gen.Generate(seed, gc).Program.Format())
	}
	for i, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("case %d: first parse: %v\n%s", i, err, src)
		}
		f1 := p1.Format()
		p2, err := Parse(f1)
		if err != nil {
			t.Fatalf("case %d: reparse: %v\n%s", i, err, f1)
		}
		if f2 := p2.Format(); f1 != f2 {
			t.Errorf("case %d: round trip diverged:\n--- first\n%s\n--- second\n%s", i, f1, f2)
		}
	}
}
