// Command specsim executes a program on the simulated chip multiprocessor
// under the sequential, HOSE and CASE models and reports cycles, speedups
// and speculation statistics — the architecture half of the paper as a
// standalone tool.
//
// Usage:
//
//	specsim -loop "TOMCATV MAIN_DO80"       # a named loop from the paper
//	specsim -file prog.ril                  # a mini-language source file
//	specsim -procs 8 -capacity 64           # machine parameters
//	specsim -timeline trace.json            # speculation timeline export
//	specsim -trace                          # timeline events as text on stderr
//
// With -timeline, the HOSE and CASE runs record their speculation
// events (segment spawns, commits, squashes with causes, overflow
// stalls) and the file receives a Chrome
// trace-event JSON document — load it in Perfetto or chrome://tracing
// to see the machine's speculation behaviour cycle by cycle. The report
// gains a squash-attribution table naming the references that caused
// the flow-violation squashes. With -trace, the same recorded events
// are printed to stderr, one line each, and the report is unchanged.
// Recording does not perturb the simulation: cycles and statistics are
// identical with and without it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/obs"
	"refidem/internal/report"
	"refidem/internal/workloads"
)

func main() {
	loop := flag.String("loop", "", `named loop, e.g. "TOMCATV MAIN_DO80" (see -list)`)
	file := flag.String("file", "", "mini-language source file")
	list := flag.Bool("list", false, "list the named loops and exit")
	procs := flag.Int("procs", 4, "processor count")
	capacity := flag.Int("capacity", 128, "speculative storage capacity (entries per segment)")
	trace := flag.Bool("trace", false, "print the speculative runs' timeline events to stderr")
	timeline := flag.String("timeline", "", "write a Chrome trace-event JSON speculation timeline to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *list {
		for _, s := range workloads.NamedLoops() {
			fmt.Printf("  %-24s (figure %d)\n", s.String(), s.Fig)
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "specsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "specsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "specsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "specsim:", err)
			}
		}()
	}
	p, err := loadProgram(*loop, *file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "specsim:", err)
		os.Exit(1)
	}
	cfg := engine.DefaultConfig()
	cfg.Processors = *procs
	cfg.SpecCapacity = *capacity
	var traceW io.Writer
	if *trace {
		traceW = os.Stderr
	}

	if err := run(os.Stdout, p, cfg, *timeline, traceW); err != nil {
		fmt.Fprintln(os.Stderr, "specsim:", err)
		os.Exit(1)
	}
}

func loadProgram(loop, file string) (*ir.Program, error) {
	switch {
	case loop != "" && file != "":
		return nil, fmt.Errorf("use either -loop or -file, not both")
	case loop != "":
		parts := strings.Fields(loop)
		if len(parts) != 2 {
			return nil, fmt.Errorf("loop name must be \"BENCH LOOP\", got %q", loop)
		}
		spec, ok := workloads.FindLoop(parts[0], parts[1])
		if !ok {
			return nil, fmt.Errorf("unknown loop %q (use -list)", loop)
		}
		return spec.Program(), nil
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return lang.Parse(string(src))
	default:
		return nil, fmt.Errorf("nothing to do: pass -loop or -file (-h for help)")
	}
}

// run executes and reports one program on one machine configuration; the
// CLI tests drive it directly. A non-empty timelinePath or a non-nil
// trace attaches a speculation timeline to each speculative run; the
// path receives both as one Chrome trace-event JSON document, and trace
// receives their events as text (writeTrace).
func run(w io.Writer, p *ir.Program, cfg engine.Config, timelinePath string, trace io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	labs := idem.LabelProgram(p)
	seq, err := engine.RunSequential(p, cfg)
	if err != nil {
		return err
	}
	hoseCfg, caseCfg := cfg, cfg
	var timelines []obs.NamedTimeline
	if timelinePath != "" || trace != nil {
		hoseCfg.Timeline = &obs.Timeline{}
		caseCfg.Timeline = &obs.Timeline{}
		timelines = []obs.NamedTimeline{
			{Name: "HOSE", T: hoseCfg.Timeline},
			{Name: "CASE", T: caseCfg.Timeline},
		}
	}
	hose, err := engine.RunSpeculative(p, labs, hoseCfg, engine.HOSE)
	if err != nil {
		return err
	}
	caseR, err := engine.RunSpeculative(p, labs, caseCfg, engine.CASE)
	if err != nil {
		return err
	}
	if trace != nil {
		writeTrace(trace, timelines)
	}
	for _, r := range []*engine.Result{hose, caseR} {
		if err := engine.LiveOutMismatch(p, labs, seq, r); err != nil {
			return fmt.Errorf("%v run produced wrong results: %w", r.Mode, err)
		}
	}

	fmt.Fprintf(w, "program %s on %d processors, %d-entry speculative storage\n\n",
		p.Name, cfg.Processors, cfg.SpecCapacity)
	t := report.NewTable("", "model", "cycles", "speedup", "dyn refs", "idem refs",
		"overflows", "stall cyc", "flow viol", "ctrl viol", "peak spec", "util%")
	rows := []*engine.Result{seq, hose, caseR}
	for _, r := range rows {
		s := r.Stats
		util := "-"
		if r.Mode != engine.Sequential && r.Cycles > 0 {
			util = fmt.Sprintf("%.0f", 100*float64(s.BusyCycles)/float64(int64(cfg.Processors)*r.Cycles))
		}
		t.AddRowf(r.Mode, r.Cycles, float64(seq.Cycles)/float64(r.Cycles),
			s.DynRefs, s.IdemRefs, s.Overflows, s.OverflowStallCycles,
			s.FlowViolations, s.ControlViolations, s.PeakSpecOccupancy, util)
	}
	fmt.Fprintln(w, t.String())
	fmt.Fprintln(w, "both speculative runs verified against the sequential memory state")
	if timelinePath != "" {
		f, err := os.Create(timelinePath)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, timelines); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nspeculation timeline written to %s\n\n", timelinePath)
		fmt.Fprint(w, report.RenderSquashAttribution(timelines))
	}
	return nil
}

// writeTrace prints one line per recorded event, naming the run, region,
// cycle, event kind, processor, segment age and segment ID, then the
// kind's detail and the reference the event is attributed to, if any:
//
//	HOSE r t=75 commit proc 0 age 0 seg 0 entries 1
//	HOSE r t=18 squash proc 2 age 2 seg 0 cause flow-violation ref write x[k]
//	HOSE main_do80 t=185 overflow-stall proc 2 age 2 seg 0 occupancy 8
//
// A timeline that hit its bound ends with the count of events it dropped.
func writeTrace(w io.Writer, timelines []obs.NamedTimeline) {
	for _, nt := range timelines {
		tl := nt.T
		for i := range tl.Events {
			e := &tl.Events[i]
			fmt.Fprintf(w, "%s %s t=%d %s proc %d age %d seg %d",
				nt.Name, tl.Regions[e.Region].Name, e.Time, e.Kind, e.Proc, e.Age, e.Seg)
			switch e.Kind {
			case obs.EvCommit:
				fmt.Fprintf(w, " entries %d", e.Aux)
			case obs.EvStall:
				fmt.Fprintf(w, " occupancy %d", e.Aux)
			case obs.EvSquash:
				fmt.Fprintf(w, " cause %s", e.Cause)
			}
			if info, ok := tl.RefInfo(e); ok {
				fmt.Fprintf(w, " ref %s", info.Text)
			}
			fmt.Fprintln(w)
		}
		if tl.Dropped > 0 {
			fmt.Fprintf(w, "%s: %d events dropped past the timeline bound\n", nt.Name, tl.Dropped)
		}
	}
}
