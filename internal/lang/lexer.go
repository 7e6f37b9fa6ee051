// Package lang implements the mini loop language in which workloads and
// examples are written: a Fortran-flavoured notation for programs made of
// counted-loop regions (iterations = segments) and explicit CFG regions.
// The parser produces ir.Program values directly; ir.Program.Format emits
// text this parser accepts, and round-trip tests keep the two in sync.
//
// Grammar (EBNF):
//
//	program  = "program" ident { decl } { proc } { region } .
//	decl     = "var" ident [ "[" int { "," int } "]" ] .
//	proc     = "proc" ident "(" [ ident { "," ident } ] ")" "{" { stmt } "}" .
//	region   = "region" ident ( loopHead | "cfg" ) "{" { ann } body "}" .
//	loopHead = "loop" ident "=" range .
//	range    = int ( "to" | "downto" ) int [ "step" int ] .
//	ann      = ( "private" | "liveout" ) ident { "," ident } .
//	body     = { stmt }            (loop region)
//	         | { segment }         (cfg region) .
//	segment  = "segment" ident "{" { stmt } "}"
//	           [ "goto" ident [ "if" expr "else" ident ] ] .
//	stmt     = lvalue "=" expr
//	         | "if" expr "{" { stmt } "}" [ "else" "{" { stmt } "}" ]
//	         | "for" ident "=" range "{" { stmt } "}"
//	         | "exit" "if" expr
//	         | "call" ident "(" [ expr { "," expr } ] ")" .
//	lvalue   = ident [ "[" expr { "," expr } "]" ] .
//
// Expressions use Go-like precedence: ||, &&, comparisons, additive,
// multiplicative, unary minus, primary.
//
// Procedures are declared before regions and may call only procedures
// already declared (plus themselves, which Validate then rejects as
// recursion — the call graph must be acyclic). Parameters are by-value
// integers in scope as index names inside the body; call arguments are
// index expressions and must not read memory.
package lang

import (
	"fmt"
	"math"
	"unicode/utf8"
)

// tokKind enumerates token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokPunct // single/double character operators and delimiters
)

// token is one lexeme.
type token struct {
	kind tokKind
	text string
	val  int64
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokInt:
		return fmt.Sprintf("%d", t.val)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer scans the source into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	lx.skipSpace()
	t := token{line: lx.line, col: lx.col}
	if lx.pos >= len(lx.src) {
		t.kind = tokEOF
		return t, nil
	}
	c := lx.src[lx.pos]
	switch {
	case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		start := lx.pos
		for lx.pos < len(lx.src) && (isIdentChar(lx.src[lx.pos])) {
			lx.advance()
		}
		t.kind = tokIdent
		t.text = lx.src[start:lx.pos]
		return t, nil
	case c >= '0' && c <= '9':
		start := lx.pos
		for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
			lx.advance()
		}
		t.kind = tokInt
		t.text = lx.src[start:lx.pos]
		var v int64
		for _, d := range t.text {
			n := int64(d - '0')
			if v > (math.MaxInt64-n)/10 {
				// Unary minus applies after lexing, so the magnitude must
				// fit in an int64 on its own.
				return t, fmt.Errorf("%d:%d: integer literal %s out of range", t.line, t.col, t.text)
			}
			v = v*10 + n
		}
		t.val = v
		return t, nil
	default:
		// Operators are sliced from the source, so a token costs no
		// allocation.
		n := 0
		if lx.pos+1 < len(lx.src) && isTwoCharOp(c, lx.src[lx.pos+1]) {
			n = 2
		} else {
			switch c {
			case '=', '+', '-', '*', '/', '%', '<', '>', '(', ')', '{', '}', '[', ']', ',':
				n = 1
			}
		}
		if n == 0 {
			_, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
			return t, fmt.Errorf("%d:%d: unexpected character %q", lx.line, lx.col, lx.src[lx.pos:lx.pos+size])
		}
		t.kind = tokPunct
		t.text = lx.src[lx.pos : lx.pos+n]
		for ; n > 0; n-- {
			lx.advance()
		}
		return t, nil
	}
}

// isTwoCharOp reports whether c1 c2 is a two-character operator: ==, !=,
// <=, >=, && or ||.
func isTwoCharOp(c1, c2 byte) bool {
	switch c1 {
	case '=', '!', '<', '>':
		return c2 == '='
	case '&', '|':
		return c2 == c1
	}
	return false
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (lx *lexer) advance() {
	if lx.pos < len(lx.src) {
		if lx.src[lx.pos] == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		lx.pos++
	}
}

// skipSpace consumes whitespace and '#' line comments.
func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '#' {
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance()
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.advance()
			continue
		}
		return
	}
}
