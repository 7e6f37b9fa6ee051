// Command idemlabel runs the reference idempotency analysis on a program
// and prints every memory reference with its label, category, and the
// analysis evidence (RFW status, dependence sinks) — the compiler half of
// the paper as a standalone tool.
//
// Usage:
//
//	idemlabel -example fig1|fig2|fig3|buts     # the paper's worked examples
//	idemlabel -file prog.ril                   # a mini-language source file
//	idemlabel -deps                            # also dump the dependence list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"refidem/internal/callgraph"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/report"
	"refidem/internal/viz"
	"refidem/internal/workloads"
)

func main() {
	example := flag.String("example", "", "run a built-in example: fig1, fig2, fig3, buts")
	file := flag.String("file", "", "mini-language source file to analyze")
	showDeps := flag.Bool("deps", false, "also print the may-dependence list")
	dot := flag.String("dot", "", "emit Graphviz instead of tables: \"segments\" or \"deps\"")
	flag.Parse()

	if err := run(os.Stdout, *example, *file, *showDeps, *dot); err != nil {
		fmt.Fprintln(os.Stderr, "idemlabel:", err)
		os.Exit(1)
	}
}

// run is the whole tool behind flag parsing and exit codes; the CLI tests
// drive it directly.
func run(w io.Writer, example, file string, showDeps bool, dot string) error {
	p, err := loadProgram(example, file)
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	labs := idem.LabelProgram(p)
	if dot != "" {
		for _, r := range p.Regions {
			switch dot {
			case "segments":
				fmt.Fprint(w, viz.SegmentGraphDOT(r))
			case "deps":
				fmt.Fprint(w, viz.DependenceGraphDOT(labs[r]))
			default:
				return fmt.Errorf("unknown -dot kind %q (want segments or deps)", dot)
			}
		}
		return nil
	}
	fmt.Fprintf(w, "program %s\n\n", p.Name)
	if len(p.Procs) > 0 {
		printProcSummaries(w, p)
	}
	for _, r := range p.Regions {
		printRegion(w, p, r, labs[r], showDeps)
	}
	return nil
}

// printProcSummaries renders the bottom-up callgraph summaries: the
// interprocedural evidence (mod/ref sets, must-write-first effects,
// affine parameter binding, exit propagation) the labeling of
// call-containing regions rests on.
func printProcSummaries(w io.Writer, p *ir.Program) {
	cg := callgraph.Analyze(p)
	t := report.NewTable("", "proc", "params", "reads", "writes", "write-first", "affine-params", "may-exit")
	for _, pr := range p.Procs {
		sum := cg.Summary(pr)
		affine := make([]string, 0, len(pr.Params))
		for _, prm := range pr.Params {
			if sum.AffineParams[prm] {
				affine = append(affine, prm)
			}
		}
		t.AddRowf(pr.Name,
			strings.Join(pr.Params, ","),
			strings.Join(callgraph.VarNames(sum.Reads), ","),
			strings.Join(callgraph.VarNames(sum.Writes), ","),
			strings.Join(callgraph.VarNames(sum.MustWriteFirst), ","),
			strings.Join(affine, ","),
			fmt.Sprint(sum.MayExit))
	}
	fmt.Fprintln(w, "procedure summaries (bottom-up):")
	fmt.Fprintln(w, t.String())
	if cg.HasRecursion() {
		fmt.Fprintf(w, "recursive cycle: %s (conservative fallback labeling)\n", strings.Join(cg.Cycle(), " -> "))
	}
	fmt.Fprintln(w)
}

func loadProgram(example, file string) (*ir.Program, error) {
	switch {
	case example != "" && file != "":
		return nil, fmt.Errorf("use either -example or -file, not both")
	case example != "":
		return workloads.Example(example)
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return lang.Parse(string(src))
	default:
		return nil, fmt.Errorf("nothing to do: pass -example or -file (-h for help)")
	}
}

func printRegion(w io.Writer, p *ir.Program, r *ir.Region, res *idem.Result, showDeps bool) {
	fmt.Fprintf(w, "region %s (%s)", r.Name, r.Kind)
	if res.FullyIndependent {
		fmt.Fprint(w, "  [fully independent: all references idempotent by Lemma 7]")
	}
	fmt.Fprintln(w)

	t := report.NewTable("", "reference", "segment", "label", "category", "RFW", "cross-sink")
	for _, ref := range r.Refs {
		segName := fmt.Sprint(ref.SegID)
		if s := r.Seg(ref.SegID); s != nil && s.Name != "" {
			segName = s.Name
		}
		rfw := ""
		if ref.Access == ir.Write {
			rfw = fmt.Sprint(res.RFW.IsRFW(ref))
		}
		t.AddRowf(ref.AccessText(), segName, res.Label(ref), res.Category(ref),
			rfw, fmt.Sprint(res.Deps.IsCrossSink(ref)))
	}
	fmt.Fprintln(w, t.String())

	total, byCat := res.IdempotentFraction()
	fmt.Fprintf(w, "static idempotent fraction: %.1f%%", total*100)
	for _, c := range []idem.Category{idem.CatReadOnly, idem.CatPrivate, idem.CatSharedDependent, idem.CatFullyIndependent} {
		if f := byCat[c]; f > 0 {
			fmt.Fprintf(w, "  %s %.1f%%", c, f*100)
		}
	}
	fmt.Fprintln(w)

	if showDeps {
		fmt.Fprintln(w, "\nmay-dependences:")
		for _, d := range res.Deps.All {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}
	fmt.Fprintln(w)
}
