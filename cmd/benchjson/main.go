// Command benchjson converts `go test -bench` output (read from stdin)
// into a JSON document mapping benchmark name to ns/op, allocs/op,
// bytes/op and every custom metric reported via b.ReportMetric. The
// document also records the environment the stream states: the CPU model
// of its `cpu:` lines and the GOMAXPROCS of its benchmark-name suffixes.
// An optional -baseline file (same JSON shape) is embedded verbatim so a
// results file can carry the reference numbers it is compared against.
//
// It is also the benchmark-regression gate: with -gate BASELINE.json the
// freshly parsed numbers are compared against the baseline file's
// benchmarks and the process exits non-zero if any gated benchmark's
// ns/op regressed beyond -gate-max-regress or its allocs/op grew at all.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem | benchjson -o BENCH_results.json
//	go test -run '^$' -bench 'BenchmarkEngine' -benchmem . | benchjson -gate BENCH_results.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's parsed measurements.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Document is the BENCH_results.json shape: current measurements, the
// environment they ran in, and the embedded reference baseline. The gate
// compares benchmarks only.
type Document struct {
	Go         string            `json:"go,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	GOMAXPROCS int               `json:"gomaxprocs,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
	Baseline   map[string]Result `json:"baseline,omitempty"`
}

// parse reads one benchmark line. go test appends a -N GOMAXPROCS suffix
// to the name unless GOMAXPROCS is 1; the name is returned without it.
func parse(line string) (name string, procs int, r Result, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, Result{}, false
	}
	name, procs = fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, Result{}, false
	}
	r = Result{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsPerOp = val
		default:
			r.Metrics[unit] = val
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return name, procs, r, true
}

// read parses a `go test -bench` stream, of one package or several, into
// a document. Every benchmark must have run at the same GOMAXPROCS: the
// document records one, and names stripped of their suffixes would
// collide.
func read(in io.Reader) (Document, error) {
	doc := Document{Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			doc.CPU = cpu
			continue
		}
		name, procs, r, ok := parse(line)
		if !ok {
			continue
		}
		if doc.GOMAXPROCS != 0 && doc.GOMAXPROCS != procs {
			return Document{}, fmt.Errorf("%s ran at GOMAXPROCS %d, earlier benchmarks at %d", name, procs, doc.GOMAXPROCS)
		}
		doc.GOMAXPROCS = procs
		doc.Benchmarks[name] = r
	}
	return doc, sc.Err()
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "JSON file with reference numbers to embed under \"baseline\"")
	goVersion := flag.String("go", "", "toolchain version string to record")
	gate := flag.String("gate", "", "baseline JSON file to gate against (exit 1 on regression)")
	gatePrefix := flag.String("gate-prefix", "BenchmarkEngine,BenchmarkAnalysisPipeline,BenchmarkSequentialBaseline,BenchmarkServiceLabel,BenchmarkServiceSimulateThroughput",
		"comma-separated name prefixes selecting the gated benchmarks")
	gateMaxRegress := flag.Float64("gate-max-regress", 0.25, "maximum allowed ns/op regression (fraction over baseline)")
	gateAllocSlack := flag.Float64("gate-alloc-slack", 0.25,
		"allocs/op growth allowed (fraction) for benchmarks matching -gate-alloc-slack-prefix; others must stay flat")
	gateAllocSlackPrefix := flag.String("gate-alloc-slack-prefix",
		"BenchmarkServiceLabelThroughput,BenchmarkServiceSimulateThroughput",
		"comma-separated name prefixes whose allocs/op gate uses -gate-alloc-slack instead of exact flatness (concurrency benchmarks only: per-op allocations vary with scheduling; serial benchmarks like BenchmarkServiceLabelSerial stay exact)")
	gateNsSlack := flag.Float64("gate-ns-slack", 1.0,
		"ns/op regression allowed (fraction) for benchmarks matching -gate-ns-slack-prefix instead of -gate-max-regress")
	gateNsSlackPrefix := flag.String("gate-ns-slack-prefix", "BenchmarkStore",
		"comma-separated name prefixes whose ns/op gate uses -gate-ns-slack (fs-bound benchmarks: fsync latency varies run to run far beyond CPU noise; their allocs/op gate still applies)")
	flag.Parse()

	doc, err := read(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.Go = *goVersion
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var base Document
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad baseline:", err)
			os.Exit(1)
		}
		doc.Baseline = base.Benchmarks
	}
	if *gate != "" {
		if err := runGate(doc.Benchmarks, *gate, *gatePrefix, *gateMaxRegress,
			*gateAllocSlack, *gateAllocSlackPrefix, *gateNsSlack, *gateNsSlackPrefix); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if *out == "" {
			return
		}
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runGate compares the measured benchmarks against the baseline file:
// for every benchmark whose name starts with one of the comma-separated
// prefixes and exists in both sets, ns/op may regress by at most
// maxRegress (fractionally) and allocs/op may not grow at all — except
// for benchmarks matching allocSlackPrefix, whose allocs/op may grow by
// allocSlack (fractionally): the service throughput benchmarks run
// concurrent submitters, so their per-op allocation counts depend on
// scheduling (how many requests coalesce) and are not exactly
// reproducible. Benchmarks matching nsSlackPrefix use nsSlack as their
// ns/op threshold instead of maxRegress: the store benchmarks are bound
// by fsync latency, which varies run to run far beyond CPU noise (their
// allocs/op gate still holds — allocation counts don't depend on disk
// speed). Any violation is an error; so is a gated baseline benchmark
// that was not measured.
func runGate(got map[string]Result, baselineFile, prefix string, maxRegress,
	allocSlack float64, allocSlackPrefix string, nsSlack float64, nsSlackPrefix string) error {
	raw, err := os.ReadFile(baselineFile)
	if err != nil {
		return err
	}
	var base Document
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("bad baseline %s: %w", baselineFile, err)
	}
	splitPrefixes := func(s string) []string {
		var out []string
		for _, p := range strings.Split(s, ",") {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	matchesAny := func(name string, prefixes []string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	prefixes := splitPrefixes(prefix)
	slackPrefixes := splitPrefixes(allocSlackPrefix)
	nsSlackPrefixes := splitPrefixes(nsSlackPrefix)
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		if matchesAny(name, prefixes) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("baseline %s has no benchmarks with prefixes %q", baselineFile, prefix)
	}
	var violations []string
	for _, name := range names {
		b := base.Benchmarks[name]
		g, ok := got[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: in baseline but not measured", name))
			continue
		}
		if b.NsPerOp <= 0 {
			violations = append(violations, fmt.Sprintf("%s: baseline ns/op is %v — unusable baseline", name, b.NsPerOp))
			continue
		}
		ratio := g.NsPerOp/b.NsPerOp - 1
		status := "ok"
		nsLimit := maxRegress
		if matchesAny(name, nsSlackPrefixes) {
			nsLimit = nsSlack
		}
		if ratio > nsLimit {
			status = "REGRESSED"
			violations = append(violations, fmt.Sprintf("%s: ns/op %.0f vs baseline %.0f (%+.1f%% > %+.1f%%)",
				name, g.NsPerOp, b.NsPerOp, 100*ratio, 100*nsLimit))
		}
		allocLimit := b.AllocsPerOp
		if matchesAny(name, slackPrefixes) {
			allocLimit = b.AllocsPerOp * (1 + allocSlack)
		}
		if g.AllocsPerOp > allocLimit {
			status = "REGRESSED"
			violations = append(violations, fmt.Sprintf("%s: allocs/op grew %.0f -> %.0f (limit %.0f)",
				name, b.AllocsPerOp, g.AllocsPerOp, allocLimit))
		}
		fmt.Printf("gate %-48s ns/op %12.0f (baseline %12.0f, %+6.1f%%)  allocs/op %6.0f (baseline %6.0f)  %s\n",
			name, g.NsPerOp, b.NsPerOp, 100*ratio, g.AllocsPerOp, b.AllocsPerOp, status)
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchmark gate failed:\n  %s", strings.Join(violations, "\n  "))
	}
	fmt.Printf("gate passed: %d benchmarks within +%.0f%% ns/op and their allocs/op limits\n",
		len(names), 100*maxRegress)
	return nil
}
