// Command perfbench is the repository's serving benchmark. It self-hosts
// the analysis service (and, for mixed-zipf, a two-replica cluster behind
// the router) on loopback inside its own process, drives one workload as
// a closed loop from two client goroutines, checks every response, and
// prints each metric by name with its unit. The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload label-cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures the
// per-layer metrics instead: half the time untraced, half traced, then a
// layer walk, and prints the per-layer cost ledger. See README.md for the
// workloads, the metrics and the ledger.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repo     string
	out      string
}

// keepResponses is how many leading responses a run keeps: their sha256
// is the run's response digest, and their sizes give
// response_bytes_per_req. walkInputs is how many leading inputs the layer
// walk covers. Both prefixes depend on the seed alone.
const (
	keepResponses = 256
	walkInputs    = 256
	// clients is the closed loop's size: one caller per core of the 2-core
	// machine the benchmark targets. setups is how many set-ups an untraced
	// run times; setup_s is their median.
	clients = 2
	setups  = 3
)

// metricDef is one reported metric: its name, unit and the layer it
// measures.
type metricDef struct{ name, unit, layer string }

// endToEnd are the metrics of a --trace 0 run.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "client"},
	{"latency_p50_ms", "ms", "client"},
	{"latency_p99_ms", "ms", "client"},
	{"cpu_ms_per_req", "ms", "process"},
	{"peak_heap_mb", "MB", "process"},
	{"setup_s", "s", "benchmark"},
}

// perLayer are the metrics of a --trace 1 run.
var perLayer = []metricDef{
	{"transport.self_us", "us", "transport"},
	{"http.handler_us", "us", "http"},
	{"http.codec_self_us", "us", "http"},
	{"cluster.router_hop_us", "us", "cluster"},
	{"cluster.bounded_skips_per_req", "count", "cluster"},
	{"service.admission_us", "us", "service"},
	{"service.resp_cache_us", "us", "service"},
	{"service.wait_us", "us", "service"},
	{"service.compute_us", "us", "service"},
	{"service.compute_other_us", "us", "service"},
	{"service.resp_cache_hit_ratio", "ratio", "service"},
	{"service.program_cache_hit_ratio", "ratio", "service"},
	{"service.coalesced_ratio", "ratio", "service"},
	{"service.computed_per_req", "count", "service"},
	{"service.delta_reuse_ratio", "ratio", "service"},
	{"service.unknown_base_per_req", "count", "service"},
	{"lang.parse_us", "us", "lang"},
	{"ir.finalize_us", "us", "ir"},
	{"ir.fingerprint_us", "us", "ir"},
	{"callgraph.analyze_us", "us", "callgraph"},
	{"dataflow.analyze_us", "us", "dataflow"},
	{"cfg.build_us", "us", "cfg"},
	{"deps.analyze_us", "us", "deps"},
	{"rfw.analyze_us", "us", "rfw"},
	{"idem.label_us", "us", "idem"},
	{"idem.self_us", "us", "idem"},
	{"engine.seq_us", "us", "engine"},
	{"engine.hose_us", "us", "engine"},
	{"engine.case_us", "us", "engine"},
	{"engine.verify_us", "us", "engine"},
	{"engine.host_ns_per_sim_cycle", "ns", "engine"},
	{"ir.refs_per_req", "count", "ir"},
	{"deps.edges_per_req", "count", "deps"},
	{"idem.idempotent_frac", "ratio", "idem"},
	{"engine.sim_cycles_per_req", "count", "engine"},
	{"engine.hose_overflows_per_req", "count", "engine"},
	{"engine.case_overflows_per_req", "count", "engine"},
	{"engine.violations_per_req", "count", "engine"},
	{"engine.case_speedup_geomean", "ratio", "engine"},
	{"response_bytes_per_req", "bytes", "http"},
	{"go.alloc_kb_per_req", "KB", "go"},
	{"go.gc_cpu_frac", "ratio", "go"},
	{"unattributed_us", "us", "ledger"},
	{"trace_overhead_pct", "%", "ledger"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout io.Writer) (int, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fl.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "input seed")
	fl.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fl.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the cost ledger")
	fl.StringVar(&o.repo, "repo", ".", "repository root (for scripts/golden_figures.json and provenance)")
	fl.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span file of a traced run")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return 2, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	prov := newProvenance(o)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d clients=%d\n", o.workload, o.seed, o.seconds, o.trace, clients)
	provJSON, _ := json.Marshal(prov) // plain struct of strings and ints
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)

	n := setups
	if o.trace == 1 {
		n = 1 // set-up time is an end-to-end metric
	}
	host, err := newHostProbe()
	if err != nil {
		return 1, err
	}
	defer host.close()
	var e *env
	var setupRaw, setupTimes []float64
	for k := 0; k < n; k++ {
		if e != nil {
			e.close()
		}
		settle()
		before, err := host.sample()
		if err != nil {
			return 1, err
		}
		t0 := now()
		if e, err = setupEnv(o.workload, o.seed, o.seconds, o.repo); err != nil {
			return 1, err
		}
		t := now().Sub(t0).Seconds()
		settle()
		after, err := host.sample()
		if err != nil {
			e.close()
			return 1, err
		}
		setupRaw = append(setupRaw, t)
		setupTimes = append(setupTimes, t*hostSpeed(before, after))
	}
	defer e.close()
	fmt.Fprintf(stdout, "setup_s runs: raw %.3f, scaled %.3f\n", setupRaw, setupTimes)

	dr := &driver{clients: clients, input: e.input, do: e.do, check: checkResponse,
		kept: make([][]byte, keepResponses), tr: e.st.tr, host: host}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	put := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			v := vals[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	measured := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		measured /= 2
	}

	// The untraced window: end-to-end metrics, or the counter-based
	// per-layer metrics of a traced run.
	c0 := e.st.counters()
	m, err := measure(e, dr, measured)
	if err != nil {
		return 1, err
	}
	dc := e.st.counters().minus(c0)
	report(stdout, "untraced window", m.window)
	fmt.Fprintf(stdout, "slices: rps %.0f\n        p99_ms %.2f\n        host speed %.3f\n", m.rps, m.p99, m.speed)
	res.Attempted, res.Failed = m.attempted, m.failed
	perReq := float64(max(m.attempted, 1))
	p50 := quantile(m.lats, 0.50)

	vals := map[string]float64{}
	if o.trace == 0 {
		fmt.Fprintf(stdout, "raw medians: throughput_rps %.1f, cpu_ms_per_req %.4f, latency_p50_ms %.4f, latency_p99_ms %.4f\n",
			median(m.rps), median(m.cpuMs), median(m.p50), median(m.p99))
		vals["throughput_rps"] = median(scaled(m.rps, m.speed, -1))
		vals["cpu_ms_per_req"] = median(scaled(m.cpuMs, m.speed, 1))
		vals["latency_p50_ms"] = median(scaled(m.p50, m.speed, 1))
		vals["latency_p99_ms"] = median(scaled(m.p99, m.speed, 1))
		vals["peak_heap_mb"] = median(m.peakMB)
		vals["setup_s"] = median(setupTimes)
	} else {
		ratio := func(a, b int64) float64 {
			if b == 0 {
				return 0
			}
			return float64(a) / float64(b)
		}
		vals["cluster.bounded_skips_per_req"] = float64(dc.boundedSkips) / perReq
		vals["service.resp_cache_hit_ratio"] = ratio(dc.respHits, dc.requests)
		vals["service.program_cache_hit_ratio"] = ratio(dc.progHits, dc.progHits+dc.progMisses)
		vals["service.coalesced_ratio"] = ratio(dc.coalesced, dc.requests)
		vals["service.computed_per_req"] = float64(dc.computed) / perReq
		vals["service.delta_reuse_ratio"] = ratio(dc.regionsReused, dc.regionsReused+dc.regionsRelabeled)
		vals["service.unknown_base_per_req"] = float64(dc.deltaUnknown) / perReq
		vals["go.alloc_kb_per_req"] = float64(m.proc.allocs) / 1024 / perReq
		vals["go.gc_cpu_frac"] = m.proc.gcCPU / m.proc.totalCPU

		if err := traced(stdout, o, e, dr, p50, vals, &res); err != nil {
			return 1, err
		}
	}

	// Post-run checks and provenance of the outputs.
	if m.firstErr != nil {
		res.Correct = false
		fmt.Fprintln(stdout, "check failed:", m.firstErr)
	}
	sampled, err := e.verifySamples()
	if err != nil {
		res.Correct = false
		fmt.Fprintln(stdout, "check failed:", err)
	}
	digest, kept, bytesKept := responseDigest(dr.kept)
	fmt.Fprintf(stdout, "responses_sha256 %s over the first %d responses (%d bytes); %d delta responses byte-equal a full label\n",
		digest, kept, bytesKept, sampled)
	if kept > 0 {
		vals["response_bytes_per_req"] = float64(bytesKept) / float64(kept)
	}
	if e.pool != nil {
		fmt.Fprintf(stdout, "delta recoveries: %d base resends, %d of them answered by the full composed program\n",
			e.resends.Load(), e.fallbacks.Load())
	}
	fmt.Fprintf(stdout, "fail_ratio %.6f (%d of %d)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	if o.trace == 0 {
		put(endToEnd, vals)
	} else {
		put(perLayer, vals)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1, fmt.Errorf("%s: output checks failed", o.workload)
	}
	return 0, nil
}

// traced runs the traced window, the layer walk and the ledger, filling
// the time-based per-layer metrics.
func traced(stdout io.Writer, o options, e *env, dr *driver, untracedP50 float64, vals map[string]float64, res *result) error {
	tr := e.st.tr
	ct0 := e.st.counters()
	tr.on.Store(true)
	tm, err := measure(e, dr, time.Duration(o.seconds)*time.Second/2)
	tr.on.Store(false)
	if err != nil {
		return err
	}
	w := tm.window
	tr.harvest()
	ct := e.st.counters().minus(ct0)
	report(stdout, "traced window", w)
	res.Attempted += w.attempted
	res.Failed += w.failed
	if w.firstErr != nil {
		res.Correct = false
		fmt.Fprintln(stdout, "check failed:", w.firstErr)
	}

	log := &spanLog{epoch: tr.epoch}
	wr, err := walkPrefix(e, walkInputs, log)
	if err != nil {
		return err
	}
	a := attribution{costs: wr, progMiss: 1, relabel: 1}
	if h := ct.progHits + ct.progMisses; h > 0 {
		a.progMiss = float64(ct.progMisses) / float64(h)
	}
	if r := ct.regionsReused + ct.regionsRelabeled; r > 0 {
		a.relabel = float64(ct.regionsRelabeled) / float64(r)
	}
	tracedP50 := quantile(w.lats, 0.50)
	l := buildLedger(tr, a, tracedP50)
	overhead := 100 * (tracedP50 - untracedP50) / untracedP50
	l.print(stdout, o.workload, overhead)

	wk := l.walk
	for name, ns := range map[string]float64{
		"lang.parse_us": wk.parse, "ir.finalize_us": wk.finalize, "ir.fingerprint_us": wk.fingerprint,
		"callgraph.analyze_us": wk.callgraph, "dataflow.analyze_us": wk.dataflow, "cfg.build_us": wk.cfg,
		"deps.analyze_us": wk.deps, "rfw.analyze_us": wk.rfw, "idem.label_us": wk.label,
		"idem.self_us": wk.label - wk.labelChildren(), "engine.seq_us": wk.seq, "engine.hose_us": wk.hose,
		"engine.case_us": wk.cas, "engine.verify_us": wk.verify,
	} {
		vals[name] = ns / 1e3
	}
	vals["transport.self_us"] = l.transport
	vals["http.handler_us"] = l.handler
	vals["http.codec_self_us"] = l.codec
	vals["cluster.router_hop_us"] = l.routerHop
	vals["service.admission_us"] = l.admission
	vals["service.resp_cache_us"] = l.respCache
	vals["service.wait_us"] = l.wait
	vals["service.compute_us"] = l.comp
	vals["service.compute_other_us"] = l.computeOther
	vals["unattributed_us"] = l.unattributed
	vals["trace_overhead_pct"] = overhead

	c := wr.counts
	in := float64(max(wr.inputs, 1))
	vals["ir.refs_per_req"] = float64(c.refs) / in
	vals["deps.edges_per_req"] = float64(c.edges) / in
	if c.refs > 0 {
		vals["idem.idempotent_frac"] = float64(c.idem) / float64(c.refs)
	}
	vals["engine.sim_cycles_per_req"] = float64(c.simCycles) / in
	vals["engine.hose_overflows_per_req"] = float64(c.hoseOv) / in
	vals["engine.case_overflows_per_req"] = float64(c.caseOv) / in
	vals["engine.violations_per_req"] = float64(c.viol) / in
	if c.sims > 0 {
		vals["engine.case_speedup_geomean"] = math.Exp(c.logSpeedup / float64(c.sims))
		vals["engine.host_ns_per_sim_cycle"] = wr.simNs / float64(c.simCycles)
	}

	exportSpans(tr, log)
	return writeSpans(o, log)
}

// writeSpans writes the traced run's spans as JSON.
func writeSpans(o options, log *spanLog) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	doc := struct {
		Workload   string     `json:"workload"`
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{o.workload, newProvenance(o), log.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(o.out, "spans-"+o.workload+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(log.spans), path)
	return nil
}

func report(w io.Writer, name string, win window) {
	fmt.Fprintf(w, "%s: %d requests (%d failed) in %.3f s, %d latency samples, p50 %.1f us, p99 %.1f us\n",
		name, win.attempted, win.failed, win.elapsed.Seconds(), len(win.lats),
		quantile(win.lats, 0.5)/1e3, quantile(win.lats, 0.99)/1e3)
	if win.exhausted {
		fmt.Fprintf(w, "%s: the pre-generated inputs ran out; the window ended early\n", name)
	}
}

// responseDigest hashes the leading kept responses in request-index order.
func responseDigest(kept [][]byte) (digest string, n, total int) {
	h := sha256.New()
	for _, b := range kept {
		if b == nil {
			break
		}
		h.Write(b)
		n++
		total += len(b)
	}
	return hex.EncodeToString(h.Sum(nil)), n, total
}

// scaled brings per-slice values to the reference host's speed: times
// (dir 1) multiply by each slice's host speed, rates (dir -1) divide by it.
func scaled(xs, speed []float64, dir int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * math.Pow(speed[i], float64(dir))
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// provenance records where a result came from.
type provenance struct {
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPU          string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
}

func newProvenance(o options) provenance {
	p := provenance{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", Commit: "unknown", Seed: o.seed}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			p.Commit = rev
			if modified == "true" {
				p.Commit += "+modified"
			}
		}
	}
	p.SourceSHA256 = sourceDigest(o.repo)
	return p
}

// sourceDigest hashes every Go source and go.mod under the repository
// (paths and contents, in path order), identifying the code under test
// when the checkout carries no version-control metadata.
func sourceDigest(repo string) string {
	var paths []string
	filepath.WalkDir(repo, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != repo && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(repo, p) // p is under repo
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}
