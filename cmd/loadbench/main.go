// Command loadbench drives the analysis service under load — in-process
// (library calls straight into internal/service), over HTTP (loopback
// POSTs against a self-hosted or external refidemd), or against a
// self-hosted multi-node cluster (N in-process replicas behind the
// consistent-hash router) — and reports throughput and latency in
// `go test -bench` row format, so the output pipes into cmd/benchjson
// and merges into BENCH_results.json.
//
// All wire traffic goes through internal/api/client: the typed client
// maps statuses back onto the api error taxonomy and supplies the
// jittered overload-backoff schedule, so this harness and the router
// retry identically.
//
// Usage:
//
//	loadbench                              # in-process, label + simulate phases
//	loadbench -mode http                   # self-hosts a daemon on a loopback port
//	loadbench -mode http -url http://H:P   # drives an external refidemd
//	loadbench -mode cluster -replicas 4    # router over 4 in-process replicas
//	loadbench -zipf 1.2                    # Zipf-skewed program popularity
//	loadbench -n-delta 500                 # adds a delta re-label phase
//	loadbench -merge BENCH_results.json    # also merge rows into the results file
//
// Output rows (one per phase):
//
//	BenchmarkLoadLabel/mode=inproc/coalesce=true  2000  52431 ns/op  19073 req/s  ...
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refidem/internal/api"
	"refidem/internal/api/client"
	"refidem/internal/benchfmt"
	"refidem/internal/cluster"
	"refidem/internal/gen"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
}

type options struct {
	mode        string
	url         string
	n           int
	nSimulate   int
	nDelta      int
	concurrency int
	programs    int
	seed        int64
	zipf        float64
	coalesce    bool
	workers     int
	replicas    int
	merge       string
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var o options
	fs.StringVar(&o.mode, "mode", "inproc", "driver mode: inproc, http or cluster")
	fs.StringVar(&o.url, "url", "", "target base URL for -mode http (empty self-hosts a daemon)")
	fs.IntVar(&o.n, "n", 2000, "label requests to issue")
	fs.IntVar(&o.nSimulate, "n-simulate", 0, "simulate requests to issue (0 = n/4)")
	fs.IntVar(&o.nDelta, "n-delta", 0, "delta re-label requests to issue (0 skips the phase)")
	fs.IntVar(&o.concurrency, "concurrency", 32, "concurrent client goroutines")
	fs.IntVar(&o.programs, "programs", 16, "distinct generated programs in the request rotation")
	fs.Int64Var(&o.seed, "seed", 1, "program generation seed")
	fs.Float64Var(&o.zipf, "zipf", 0, "Zipf exponent for program popularity (>1; 0 = uniform rotation)")
	fs.BoolVar(&o.coalesce, "coalesce", true, "coalesce identical in-flight requests (self-hosted modes)")
	fs.IntVar(&o.workers, "workers", 0, "service workers (0 = all cores; cluster mode defaults to 1 per replica)")
	fs.IntVar(&o.replicas, "replicas", 4, "replica count for -mode cluster")
	fs.StringVar(&o.merge, "merge", "", "merge result rows into this BENCH_results.json file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.nSimulate == 0 {
		o.nSimulate = o.n / 4
	}
	if o.zipf != 0 && o.zipf <= 1 {
		return fmt.Errorf("-zipf must be > 1 (rand.NewZipf's domain), got %v", o.zipf)
	}

	srcs := make([]string, o.programs)
	profiles := gen.Profiles()
	for i := range srcs {
		srcs[i] = gen.FromProfile(profiles[i%len(profiles)], o.seed+int64(i)).Program.Format()
	}
	pick := popularity(o, len(srcs))
	deltas := deltaRequests(srcs)

	var post func(req api.Request) error
	var target string
	ctx := context.Background()
	switch o.mode {
	case "inproc":
		s := service.New(selfCfg(o, o.workers))
		defer s.Close()
		post = func(req api.Request) error {
			_, err := s.Do(ctx, req)
			return err
		}
		target = "inproc"
	case "http":
		base := o.url
		if base == "" {
			s := service.New(selfCfg(o, o.workers))
			defer s.Close()
			addr, stop, err := serve(s.Handler())
			if err != nil {
				return err
			}
			defer stop()
			base = addr
			fmt.Fprintf(os.Stderr, "loadbench: self-hosted daemon at %s\n", base)
		}
		c := client.New(base)
		post = func(req api.Request) error {
			_, err := c.Do(ctx, req)
			return err
		}
		target = "http"
	case "cluster":
		if o.replicas < 1 {
			return fmt.Errorf("-replicas must be >= 1, got %d", o.replicas)
		}
		workers := o.workers
		if workers == 0 {
			workers = 1 // per-replica; makes replica scaling the variable under test
		}
		var reps []cluster.Replica
		for r := 0; r < o.replicas; r++ {
			s := service.New(selfCfg(o, workers))
			defer s.Close()
			addr, stop, err := serve(s.Handler())
			if err != nil {
				return err
			}
			defer stop()
			reps = append(reps, cluster.Replica{Name: fmt.Sprintf("rep-%d", r), URL: addr})
		}
		rt, err := cluster.New(cluster.Config{Replicas: reps, ProbeInterval: 250 * time.Millisecond})
		if err != nil {
			return err
		}
		defer rt.Close()
		addr, stop, err := serve(rt.Handler())
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "loadbench: router at %s over %d replicas\n", addr, o.replicas)
		c := client.New(addr)
		post = func(req api.Request) error {
			_, err := c.Do(ctx, req)
			return err
		}
		target = fmt.Sprintf("cluster/replicas=%d", o.replicas)
	default:
		return fmt.Errorf("unknown -mode %q (want inproc, http or cluster)", o.mode)
	}
	do := func(op string, i int) error {
		req := request(op, srcs, deltas, pick[i])
		err := post(req)
		if err != nil && req.Base != "" && errors.Is(err, api.ErrUnknownBase) {
			// Evicted base: re-send the full program (re-registering it),
			// then retry the delta — the documented client recovery.
			if err = post(api.Request{Op: api.OpLabel, Program: srcs[pick[i]]}); err == nil {
				err = post(req)
			}
		}
		return err
	}

	label := fmt.Sprintf("mode=%s/coalesce=%v", target, o.coalesce)
	if o.zipf > 0 {
		label += fmt.Sprintf("/zipf=%v", o.zipf)
	}
	rows := []row{}
	for _, phase := range []struct {
		name string
		op   string
		n    int
	}{
		{"BenchmarkLoadLabel/" + label, service.OpLabel, o.n},
		{"BenchmarkLoadSimulate/" + label, service.OpSimulate, o.nSimulate},
		{"BenchmarkLoadLabelDelta/" + label, opLabelDelta, o.nDelta},
	} {
		if phase.n <= 0 {
			continue
		}
		if phase.op == opLabelDelta {
			// Register every base before timing: the delta phase measures
			// incremental re-labels, not the bases' first full labels.
			for i, src := range srcs {
				if err := post(api.Request{Op: api.OpLabel, Program: src}); err != nil {
					return fmt.Errorf("pre-seeding base %d: %w", i, err)
				}
			}
		}
		r, err := drive(phase.name, phase.op, phase.n, o.concurrency, do)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.benchLine())
		rows = append(rows, r)
	}
	if o.merge != "" {
		if err := mergeRows(o.merge, rows); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadbench: merged %d rows into %s\n", len(rows), o.merge)
	}
	return nil
}

// opLabelDelta is the harness-internal op name for the delta phase; on
// the wire it is an OpLabel request with Base+Patches set.
const opLabelDelta = "label-delta"

// selfCfg is the service configuration for self-hosted targets.
func selfCfg(o options, workers int) service.Config {
	cfg := service.DefaultConfig()
	cfg.Coalesce = o.coalesce
	cfg.Workers = workers
	cfg.QueueDepth = 1 << 16
	return cfg
}

// serve exposes a handler on an ephemeral loopback port.
func serve(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// popularity precomputes the request→program assignment: uniform
// rotation by default, or Zipf-skewed when -zipf is set (popular
// programs then dominate, exercising the response caches and — in
// cluster mode — concentrating load on the owners of hot fingerprints).
func popularity(o options, programs int) []int {
	n := o.n + o.nSimulate + o.nDelta + programs
	pick := make([]int, n)
	if o.zipf == 0 || programs == 1 {
		for i := range pick {
			pick[i] = i % programs
		}
		return pick
	}
	rng := rand.New(rand.NewSource(o.seed))
	z := rand.NewZipf(rng, o.zipf, 1, uint64(programs-1))
	for i := range pick {
		pick[i] = int(z.Uint64())
	}
	return pick
}

// deltaRequests builds one delta request per program: the base
// fingerprint plus a patch shrinking the first loop region by one trip
// (To -= Step) — a minimal real edit that re-labels only the regions it
// reaches. Programs with no shrinkable loop fall back to a patch
// replaying the first region unchanged.
func deltaRequests(srcs []string) []api.Request {
	out := make([]api.Request, len(srcs))
	for i, src := range srcs {
		p, err := lang.Parse(src)
		if err != nil || len(p.Regions) == 0 {
			continue // leave zero value; request() falls back to full label
		}
		fp := ir.FingerprintOf(p)
		target := p.Regions[0]
		for _, r := range p.Regions {
			if r.Kind != ir.LoopRegion {
				continue
			}
			if (r.Step > 0 && r.To-r.Step >= r.From) || (r.Step < 0 && r.To-r.Step <= r.From) {
				target = r
				r.To -= r.Step
				break
			}
		}
		out[i] = api.Request{
			Op:      api.OpLabel,
			Base:    hex.EncodeToString(fp[:]),
			Patches: []api.RegionPatch{{Region: target.Name, Source: target.Format()}},
		}
	}
	return out
}

// request builds the i-th request of a phase.
func request(op string, srcs []string, deltas []api.Request, prog int) api.Request {
	if op == opLabelDelta && deltas[prog].Base != "" {
		return deltas[prog]
	}
	if op == opLabelDelta {
		op = service.OpLabel
	}
	return api.Request{Op: op, Program: srcs[prog]}
}

// row is one measured phase.
type row struct {
	name      string
	n         int
	elapsed   time.Duration
	lats      []int64 // per-request ns, sorted
	retries   int64
	backoffNs int64 // total time spent sleeping between overload retries
}

// drive issues n requests of one op across the concurrent clients,
// retrying overload rejections with the client package's jittered
// exponential backoff — backpressure is expected behaviour under
// saturation, not failure.
func drive(name, op string, n, concurrency int, do func(op string, i int) error) (row, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	bo := client.DefaultBackoff()
	var (
		next      atomic.Int64
		retries   atomic.Int64
		backoffNs atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstE    error
	)
	lats := make([]int64, n)
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				attempt := 0
				var slept time.Duration
				for {
					err := do(op, i)
					if err == nil {
						break
					}
					if errors.Is(err, service.ErrOverloaded) && slept < bo.Budget {
						d := bo.SleepFor(attempt, client.RetryAfterHint(err), rng.Int63n)
						retries.Add(1)
						backoffNs.Add(int64(d))
						slept += d
						attempt++
						time.Sleep(d)
						continue
					}
					if errors.Is(err, service.ErrOverloaded) {
						err = fmt.Errorf("still overloaded after %v of backoff (%d retries): %w",
							slept.Round(time.Millisecond), attempt, err)
					}
					mu.Lock()
					if firstE == nil {
						firstE = fmt.Errorf("request %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
				lats[i] = time.Since(t0).Nanoseconds()
			}
		}(c)
	}
	wg.Wait()
	if firstE != nil {
		return row{}, firstE
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	return row{name: name, n: n, elapsed: time.Since(start), lats: lats,
		retries: retries.Load(), backoffNs: backoffNs.Load()}, nil
}

func (r row) pct(p float64) int64 {
	if len(r.lats) == 0 {
		return 0
	}
	i := int(p * float64(len(r.lats)-1))
	return r.lats[i]
}

// benchLine renders the row in `go test -bench` format (parsable by
// cmd/benchjson: iterations, then value/unit pairs).
func (r row) benchLine() string {
	nsPerOp := float64(r.elapsed.Nanoseconds()) / float64(r.n)
	reqPerSec := float64(r.n) / r.elapsed.Seconds()
	return fmt.Sprintf("%s \t%8d\t%12.0f ns/op\t%12.0f req/s\t%10d p50-ns\t%10d p95-ns\t%10d p99-ns\t%10d max-ns\t%6d overload-retries\t%10d backoff-ns",
		r.name, r.n, nsPerOp, reqPerSec,
		r.pct(0.50), r.pct(0.95), r.pct(0.99), r.lats[len(r.lats)-1], r.retries, r.backoffNs)
}

// mergeRows inserts the measured rows into the results file's
// "benchmarks" map (the shared internal/benchfmt document), creating the
// file if needed and leaving every other key untouched.
func mergeRows(path string, rows []row) error {
	doc := benchfmt.Document{Benchmarks: map[string]benchfmt.Result{}}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("bad results file %s: %w", path, err)
		}
		if doc.Benchmarks == nil {
			doc.Benchmarks = map[string]benchfmt.Result{}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, r := range rows {
		name := strings.TrimSpace(r.name)
		doc.Benchmarks[name] = benchfmt.Result{
			Iterations: int64(r.n),
			NsPerOp:    float64(r.elapsed.Nanoseconds()) / float64(r.n),
			Metrics: map[string]float64{
				"req/s":            float64(r.n) / r.elapsed.Seconds(),
				"p50-ns":           float64(r.pct(0.50)),
				"p95-ns":           float64(r.pct(0.95)),
				"p99-ns":           float64(r.pct(0.99)),
				"max-ns":           float64(r.lats[len(r.lats)-1]),
				"overload-retries": float64(r.retries),
				"backoff-ns":       float64(r.backoffNs),
			},
		}
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
