package ir

import (
	"strconv"
	"sync"
)

// The program printer. Program.appendText and its helpers are the one
// rendering of program text: Format, Region.Format, Canonical and
// RegionFingerprintOf all append through them, so a fingerprint is a hash
// of exactly the bytes Format returns. Expressions and references print
// through appendExpr and Ref.appendText (expr.go, ir.go). The fmt printer
// this replaced is the oracle in print_oracle_test.go.

// textBufs pools the scratch buffers programs are printed into, so
// formatting or fingerprinting a program allocates its result alone.
var textBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledText bounds the buffers returned to textBufs: one huge program
// must not pin its buffer for the life of the process.
const maxPooledText = 64 << 10

func getTextBuf() *[]byte { return textBufs.Get().(*[]byte) }

func putTextBuf(bp *[]byte, b []byte) {
	if cap(b) > maxPooledText {
		return
	}
	*bp = b[:0]
	textBufs.Put(bp)
}

// Format renders the program as mini-language source text. The output is
// accepted by the lang package parser, which is exercised by round-trip
// tests.
func (p *Program) Format() string {
	bp := getTextBuf()
	b := p.appendText((*bp)[:0])
	s := string(b)
	putTextBuf(bp, b)
	return s
}

// Format renders the region as mini-language source text.
func (r *Region) Format() string {
	bp := getTextBuf()
	b := r.appendText((*bp)[:0])
	s := string(b)
	putTextBuf(bp, b)
	return s
}

// appendText appends the program's source text to b: its name, variable
// declarations, procedures and regions, in declaration order.
func (p *Program) appendText(b []byte) []byte {
	b = append(b, "program "...)
	b = append(b, p.Name...)
	b = append(b, '\n')
	for _, v := range p.Vars {
		b = append(b, "var "...)
		b = append(b, v.Name...)
		if !v.IsScalar() {
			b = append(b, '[')
			for i, d := range v.Dims {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(d), 10)
			}
			b = append(b, ']')
		}
		b = append(b, '\n')
	}
	b = appendProcs(b, p.Procs)
	for _, r := range p.Regions {
		b = r.appendText(b)
	}
	return b
}

// appendProcs appends the procedure table's source text.
func appendProcs(b []byte, procs []*Proc) []byte {
	for _, pr := range procs {
		b = append(b, "proc "...)
		b = append(b, pr.Name...)
		b = append(b, '(')
		for i, prm := range pr.Params {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, prm...)
		}
		b = append(b, ") {\n"...)
		b = appendStmts(b, pr.Body, 1)
		b = append(b, "}\n"...)
	}
	return b
}

// appendText appends the region's source text to b.
func (r *Region) appendText(b []byte) []byte {
	switch r.Kind {
	case LoopRegion:
		b = append(b, "region "...)
		b = append(b, r.Name...)
		b = append(b, " loop "...)
		b = append(b, r.Index...)
		b = append(b, " = "...)
		b = appendRange(b, r.From, r.To, r.Step)
		b = append(b, " {\n"...)
		b = appendAnnotations(b, r)
		b = appendStmts(b, r.Segments[0].Body, 1)
		b = append(b, "}\n"...)
	case CFGRegion:
		b = append(b, "region "...)
		b = append(b, r.Name...)
		b = append(b, " cfg {\n"...)
		b = appendAnnotations(b, r)
		for _, s := range r.Segments {
			b = append(b, "  segment "...)
			b = append(b, s.Name...)
			b = append(b, " {\n"...)
			b = appendStmts(b, s.Body, 2)
			b = append(b, "  }"...)
			if len(s.Succs) > 0 {
				b = append(b, " goto "...)
				b = append(b, r.Seg(s.Succs[0]).Name...)
				if s.Branch != nil {
					b = append(b, " if "...)
					b = appendExpr(b, s.Branch)
					b = append(b, " else "...)
					b = append(b, r.Seg(s.Succs[1]).Name...)
				}
			}
			b = append(b, '\n')
		}
		b = append(b, "}\n"...)
	}
	return b
}

// appendAnnotations appends a region's private and liveout lines, each
// listing its set's names in sorted order. A line is printed whenever its
// map is non-empty.
func appendAnnotations(b []byte, r *Region) []byte {
	if len(r.Ann.Private) > 0 {
		b = appendNameLine(b, "  private ", r.Ann.Private)
	}
	if len(r.Ann.LiveOut) > 0 {
		b = appendNameLine(b, "  liveout ", r.Ann.LiveOut)
	}
	return b
}

// appendNameLine appends head, the names set in m sorted and joined by
// ", ", and a newline.
func appendNameLine(b []byte, head string, m map[string]bool) []byte {
	var scratch [16]string
	names := scratch[:0]
	for k, v := range m {
		if v {
			names = append(names, k)
		}
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	b = append(b, head...)
	for i, n := range names {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, n...)
	}
	return append(b, '\n')
}

// appendRange appends a loop range, "0 to 7", "7 downto 0 step 2".
func appendRange(b []byte, from, to, step int) []byte {
	b = strconv.AppendInt(b, int64(from), 10)
	if step > 0 {
		b = append(b, " to "...)
	} else {
		b = append(b, " downto "...)
	}
	b = strconv.AppendInt(b, int64(to), 10)
	if step != 1 && step != -1 {
		if step < 0 {
			step = -step
		}
		b = append(b, " step "...)
		b = strconv.AppendInt(b, int64(step), 10)
	}
	return b
}

// appendIndent appends depth levels of two-space indentation.
func appendIndent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, "  "...)
	}
	return b
}

// appendStmts appends statements at the given indentation depth.
func appendStmts(b []byte, stmts []Stmt, depth int) []byte {
	for _, st := range stmts {
		switch s := st.(type) {
		case *Assign:
			b = appendIndent(b, depth)
			b = s.LHS.appendText(b)
			b = append(b, " = "...)
			b = appendExpr(b, s.RHS)
			b = append(b, '\n')
		case *If:
			b = appendIndent(b, depth)
			b = append(b, "if "...)
			b = appendExpr(b, s.Cond)
			b = append(b, " {\n"...)
			b = appendStmts(b, s.Then, depth+1)
			if len(s.Else) > 0 {
				b = appendIndent(b, depth)
				b = append(b, "} else {\n"...)
				b = appendStmts(b, s.Else, depth+1)
			}
			b = appendIndent(b, depth)
			b = append(b, "}\n"...)
		case *For:
			b = appendIndent(b, depth)
			b = append(b, "for "...)
			b = append(b, s.Index...)
			b = append(b, " = "...)
			b = appendRange(b, s.From, s.To, s.Step)
			b = append(b, " {\n"...)
			b = appendStmts(b, s.Body, depth+1)
			b = appendIndent(b, depth)
			b = append(b, "}\n"...)
		case *ExitRegion:
			b = appendIndent(b, depth)
			b = append(b, "exit if "...)
			b = appendExpr(b, s.Cond)
			b = append(b, '\n')
		case *Call:
			b = appendIndent(b, depth)
			b = append(b, "call "...)
			b = append(b, s.Callee...)
			b = append(b, '(')
			for i, a := range s.Args {
				if i > 0 {
					b = append(b, ", "...)
				}
				b = appendExpr(b, a)
			}
			b = append(b, ")\n"...)
		}
	}
	return b
}
