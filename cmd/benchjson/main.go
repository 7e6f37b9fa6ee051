// Command benchjson converts `go test -bench` output (read from stdin)
// into a JSON document mapping benchmark name to ns/op, allocs/op,
// bytes/op and every custom metric reported via b.ReportMetric. An
// optional -baseline file (same JSON shape) is embedded verbatim so a
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
	"os"
	"sort"
	"strconv"
	"strings"

	"refidem/internal/benchfmt"
)

// Result and Document are the BENCH_results.json shapes (see
// internal/benchfmt).
type (
	Result   = benchfmt.Result
	Document = benchfmt.Document
)

func parse(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name := fields[0]
	// Strip the -N GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	r := Result{Iterations: iters, Metrics: map[string]float64{}}
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
	return name, r, true
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

	doc := Document{Go: *goVersion, Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if name, r, ok := parse(sc.Text()); ok {
			doc.Benchmarks[name] = r
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
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
