package ir

// The fmt-based program printer the append printer (print.go) replaced,
// kept as its test oracle: the property test and the fuzz target in
// print_test.go require Format, Canonical and RegionFingerprintOf to
// produce exactly these bytes. Exported so the external test package can
// call it.

import (
	"crypto/sha256"
	"fmt"
	"strings"
)

// OracleFormat is Program.Format's oracle.
func OracleFormat(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, v := range p.Vars {
		if v.IsScalar() {
			fmt.Fprintf(&b, "var %s\n", v.Name)
		} else {
			dims := make([]string, len(v.Dims))
			for i, d := range v.Dims {
				dims[i] = fmt.Sprint(d)
			}
			fmt.Fprintf(&b, "var %s[%s]\n", v.Name, strings.Join(dims, ","))
		}
	}
	for _, pr := range p.Procs {
		fmt.Fprintf(&b, "proc %s(%s) {\n", pr.Name, strings.Join(pr.Params, ", "))
		oracleStmts(&b, pr.Body, "  ")
		b.WriteString("}\n")
	}
	for _, r := range p.Regions {
		b.WriteString(OracleRegionFormat(r))
	}
	return b.String()
}

// OracleRegionFormat is Region.Format's oracle.
func OracleRegionFormat(r *Region) string {
	var b strings.Builder
	switch r.Kind {
	case LoopRegion:
		fmt.Fprintf(&b, "region %s loop %s = %s {\n", r.Name, r.Index, oracleRange(r.From, r.To, r.Step))
		oracleAnnotations(&b, r, "  ")
		oracleStmts(&b, r.Segments[0].Body, "  ")
		b.WriteString("}\n")
	case CFGRegion:
		fmt.Fprintf(&b, "region %s cfg {\n", r.Name)
		oracleAnnotations(&b, r, "  ")
		for _, s := range r.Segments {
			fmt.Fprintf(&b, "  segment %s {\n", s.Name)
			oracleStmts(&b, s.Body, "    ")
			b.WriteString("  }")
			if len(s.Succs) > 0 {
				names := make([]string, len(s.Succs))
				for i, id := range s.Succs {
					names[i] = r.Seg(id).Name
				}
				if s.Branch != nil {
					fmt.Fprintf(&b, " goto %s if %s else %s", names[0], s.Branch.String(), names[1])
				} else {
					fmt.Fprintf(&b, " goto %s", names[0])
				}
			}
			b.WriteString("\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// OracleCanonical is Canonical's oracle: the oracle text and its hash.
func OracleCanonical(p *Program) (string, Fingerprint) {
	src := OracleFormat(p)
	return src, sha256.Sum256([]byte(src))
}

// OracleRegionFingerprintOf is RegionFingerprintOf's oracle.
func OracleRegionFingerprintOf(p *Program, r *Region, liveOut func(*Var) bool) Fingerprint {
	var b strings.Builder
	for _, pr := range p.Procs {
		fmt.Fprintf(&b, "proc %s(%s) {\n", pr.Name, strings.Join(pr.Params, ", "))
		oracleStmts(&b, pr.Body, "  ")
		b.WriteString("}\n")
	}
	b.WriteString(OracleRegionFormat(r))
	for _, v := range r.DenseIndex().Vars {
		fmt.Fprintf(&b, "var %s", v.Name)
		for _, d := range v.Dims {
			fmt.Fprintf(&b, "[%d]", d)
		}
		if liveOut != nil && liveOut(v) {
			b.WriteString(" live")
		}
		b.WriteString("\n")
	}
	return sha256.Sum256([]byte(b.String()))
}

func oracleAnnotations(b *strings.Builder, r *Region, indent string) {
	if len(r.Ann.Private) > 0 {
		fmt.Fprintf(b, "%sprivate %s\n", indent, strings.Join(oracleSortedKeys(r.Ann.Private), ", "))
	}
	if len(r.Ann.LiveOut) > 0 {
		fmt.Fprintf(b, "%sliveout %s\n", indent, strings.Join(oracleSortedKeys(r.Ann.LiveOut), ", "))
	}
}

func oracleSortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func oracleRange(from, to, step int) string {
	switch step {
	case 1:
		return fmt.Sprintf("%d to %d", from, to)
	case -1:
		return fmt.Sprintf("%d downto %d", from, to)
	default:
		if step > 0 {
			return fmt.Sprintf("%d to %d step %d", from, to, step)
		}
		return fmt.Sprintf("%d downto %d step %d", from, to, -step)
	}
}

func oracleStmts(b *strings.Builder, stmts []Stmt, indent string) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *Assign:
			fmt.Fprintf(b, "%s%s = %s\n", indent, s.LHS.appendText(nil), s.RHS.String())
		case *If:
			fmt.Fprintf(b, "%sif %s {\n", indent, s.Cond.String())
			oracleStmts(b, s.Then, indent+"  ")
			if len(s.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", indent)
				oracleStmts(b, s.Else, indent+"  ")
			}
			fmt.Fprintf(b, "%s}\n", indent)
		case *For:
			fmt.Fprintf(b, "%sfor %s = %s {\n", indent, s.Index, oracleRange(s.From, s.To, s.Step))
			oracleStmts(b, s.Body, indent+"  ")
			fmt.Fprintf(b, "%s}\n", indent)
		case *ExitRegion:
			fmt.Fprintf(b, "%sexit if %s\n", indent, s.Cond.String())
		case *Call:
			args := make([]string, len(s.Args))
			for i, a := range s.Args {
				args[i] = a.String()
			}
			fmt.Fprintf(b, "%scall %s(%s)\n", indent, s.Callee, strings.Join(args, ", "))
		}
	}
}
