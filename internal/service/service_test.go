package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/workloads"
)

// testConfig returns a small deterministic server configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheCapacity = 8
	cfg.Workers = 2
	cfg.QueueDepth = 64
	return cfg
}

const testProgramSrc = `program svc_test
var a[16]
var b[16]
region main loop k = 0 to 15 {
  a[k] = b[k] + 1
}
`

func TestLabelMatchesDirectPipeline(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	raw, err := s.Label(context.Background(), Request{Example: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	var doc LabelResponse
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	p := workloads.Figure2()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	labs := idem.LabelProgram(p)
	if doc.Program != p.Name {
		t.Errorf("program = %q, want %q", doc.Program, p.Name)
	}
	if len(doc.Regions) != len(p.Regions) {
		t.Fatalf("regions = %d, want %d", len(doc.Regions), len(p.Regions))
	}
	for ri, r := range p.Regions {
		res := labs[r]
		reg := doc.Regions[ri]
		if len(reg.Refs) != len(r.Refs) {
			t.Fatalf("region %s: %d refs, want %d", r.Name, len(reg.Refs), len(r.Refs))
		}
		for i, ref := range r.Refs {
			if reg.Refs[i].Label != res.Label(ref).String() {
				t.Errorf("region %s ref %d: label %q, want %q",
					r.Name, i, reg.Refs[i].Label, res.Label(ref))
			}
			if reg.Refs[i].Category != res.Category(ref).String() {
				t.Errorf("region %s ref %d: category %q, want %q",
					r.Name, i, reg.Refs[i].Category, res.Category(ref))
			}
		}
	}
}

func TestSimulateMatchesDirectEngine(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	raw, err := s.Simulate(context.Background(), Request{Example: "fig2", Procs: 8, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	var doc SimulateResponse
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	p := workloads.Figure2()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	labs := idem.LabelProgram(p)
	cfg := engine.DefaultConfig()
	cfg.Processors = 8
	cfg.SpecCapacity = 64
	seq, err := engine.RunSequential(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hose, err := engine.RunSpeculative(p, labs, cfg, engine.HOSE)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Processors != 8 || doc.SpecCapacity != 64 {
		t.Errorf("machine = %d procs / %d capacity, want 8/64", doc.Processors, doc.SpecCapacity)
	}
	if len(doc.Models) != 3 {
		t.Fatalf("models = %d, want 3", len(doc.Models))
	}
	if doc.Models[0].Cycles != seq.Cycles {
		t.Errorf("sequential cycles = %d, want %d", doc.Models[0].Cycles, seq.Cycles)
	}
	if doc.Models[1].Cycles != hose.Cycles {
		t.Errorf("HOSE cycles = %d, want %d", doc.Models[1].Cycles, hose.Cycles)
	}
	if !doc.Verified {
		t.Error("response not marked verified")
	}
}

// TestResponsesByteDeterministic is the acceptance-criteria guarantee:
// identical programs produce byte-identical responses — across repeated
// requests, across source-vs-repeat submissions, and across servers.
func TestResponsesByteDeterministic(t *testing.T) {
	cfg1 := testConfig()
	cfg1.ResponseCache = -1 // repeats on s1 must recompute, not replay bytes
	s1 := New(cfg1)
	defer s1.Close()
	s2 := New(testConfig())
	defer s2.Close()
	ctx := context.Background()

	for _, req := range []Request{
		{Op: OpLabel, Program: testProgramSrc, Deps: true},
		{Op: OpLabel, Example: "fig3"},
		{Op: OpSimulate, Example: "fig2", Procs: 4},
	} {
		first, err := s1.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := s1.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, again) {
				t.Fatalf("op %s: response differs across repeated requests", req.Op)
			}
		}
		other, err := s2.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, other) {
			t.Fatalf("op %s: response differs across servers", req.Op)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()

	cases := []struct {
		name string
		req  Request
	}{
		{"unknown op", Request{Op: "mystery", Example: "fig1"}},
		{"no program", Request{Op: OpLabel}},
		{"both inputs", Request{Op: OpLabel, Program: testProgramSrc, Example: "fig1"}},
		{"unknown example", Request{Op: OpLabel, Example: "fig99"}},
		{"parse error", Request{Op: OpLabel, Program: "program broken\nregion {"}},
		{"negative procs", Request{Op: OpSimulate, Example: "fig1", Procs: -1}},
	}
	for _, tc := range cases {
		if _, err := s.Do(ctx, tc.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
	if got := s.Metrics().SnapshotNow().BadRequests; got != int64(len(cases)) {
		t.Errorf("bad request counter = %d, want %d", got, len(cases))
	}
}

// deepNest returns a program whose one assignment sits under outer
// region-body loops and, when inner > 0, a call to a procedure that opens
// inner more loops around it.
func deepNest(outer, inner int) string {
	loops := func(prefix string, n int, body string) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "for %s%d = 0 to 1 {\n", prefix, i)
		}
		return b.String() + body + "\n" + strings.Repeat("}\n", n)
	}
	src := "program deep\nvar a[4]\n"
	body := loops("j", outer, "a[j0] = a[j0] + 1")
	if inner > 0 {
		src += "proc f(p) {\n" + loops("q", inner, "a[p] = a[p] + 1") + "}\n"
		body = loops("j", outer, "call f(j0)")
	}
	return src + "region main loop k = 0 to 1 {\n" + body + "}\n"
}

// TestNestDepthCap: a reference nested deeper than ir.MaxAffDepth,
// directly or through a call, is a bad request on /v1/label and
// /v1/simulate, refused before any task is admitted; a nest at the cap
// still labels and simulates.
func TestNestDepthCap(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const pinned = `region \"main\": ir: reference #0: loop nest depth 9 exceeds 8`
	for _, c := range []struct {
		name         string
		outer, inner int
		status       int
		wantComputed int64
	}{
		{"9 loops", 9, 0, http.StatusBadRequest, 0},
		{"4 loops calling 5", 4, 5, http.StatusBadRequest, 0},
		{"8 loops", 8, 0, http.StatusOK, 2},
		{"4 loops calling 4", 4, 4, http.StatusOK, 4},
	} {
		body, err := json.Marshal(Request{Program: deepNest(c.outer, c.inner)})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/label", "/v1/simulate"} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("%s %s: status %d, want %d\n%s", c.name, path, resp.StatusCode, c.status, got)
			}
			if c.status == http.StatusBadRequest && string(got) != `{"error":"bad request: `+pinned+`"}`+"\n" {
				t.Errorf("%s %s: body %s, want the pinned depth error", c.name, path, got)
			}
		}
		if n := s.Metrics().SnapshotNow().Computed; n != c.wantComputed {
			t.Errorf("after %s: %d tasks computed, want %d", c.name, n, c.wantComputed)
		}
	}
}

func TestBatchMixedOpsAndErrors(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	reqs := []Request{
		{Op: OpLabel, Example: "fig2"},
		{Op: OpSimulate, Example: "fig1"},
		{Op: OpLabel, Example: "fig99"}, // bad item must not fail its neighbours
		{Op: OpLabel, Program: testProgramSrc},
	}
	resps, errs := s.Batch(context.Background(), reqs)
	if errs[0] != nil || errs[1] != nil || errs[3] != nil {
		t.Fatalf("unexpected item errors: %v", errs)
	}
	if !errors.Is(errs[2], ErrBadRequest) {
		t.Errorf("item 2 err = %v, want ErrBadRequest", errs[2])
	}
	solo, err := s.Label(context.Background(), Request{Example: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resps[0], solo) {
		t.Error("batched label response differs from the solo response")
	}
	if got := s.Metrics().SnapshotNow().BatchCalls; got != 1 {
		t.Errorf("batch calls = %d, want 1", got)
	}
}

// TestCoalescingSingleCompute holds a computation in flight and verifies
// that concurrent identical requests attach to it instead of enqueueing
// their own tasks.
func TestCoalescingSingleCompute(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s := New(cfg)
	defer s.Close()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.computeHook = func(p *ir.Program) {
		if p.Name == "svc_test" {
			entered <- struct{}{}
			<-release
		}
	}

	const followers = 8
	results := make(chan error, followers+1)
	submit := func() {
		_, err := s.Label(context.Background(), Request{Program: testProgramSrc})
		results <- err
	}
	go submit()
	<-entered // the leader's compute is in flight
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); submit() }()
	}
	// Wait until every follower has coalesced onto the in-flight task.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().SnapshotNow().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers did not coalesce: %+v", s.Metrics().SnapshotNow())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i := 0; i < followers+1; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics().SnapshotNow()
	if snap.Computed != 1 {
		t.Errorf("computed = %d, want 1 (all requests share one task)", snap.Computed)
	}
	if snap.Coalesced != followers {
		t.Errorf("coalesced = %d, want %d", snap.Coalesced, followers)
	}
}

// TestOverloadBackpressure blocks every worker, fills the admission
// queue behind them with distinct requests and verifies the typed
// rejection of the next one: the queue alone bounds the waiting tasks.
func TestOverloadBackpressure(t *testing.T) {
	examples := []string{"fig1", "fig2", "fig3", "buts"}
	for _, c := range []struct{ workers, depth int }{{1, 1}, {2, 3}} {
		t.Run(fmt.Sprintf("workers=%d", c.workers), func(t *testing.T) {
			cfg := testConfig()
			cfg.Workers = c.workers
			cfg.QueueDepth = c.depth
			s := New(cfg)
			defer s.Close()

			entered := make(chan struct{}, c.workers)
			release := make(chan struct{})
			s.computeHook = func(p *ir.Program) {
				if p.Name == "svc_test" {
					entered <- struct{}{}
					<-release
				}
			}
			admitted := make(chan error, c.workers+c.depth)
			submit := func(req Request) {
				go func() {
					_, err := s.Label(context.Background(), req)
					admitted <- err
				}()
			}
			// Each worker blocks on its own program; the queue is empty.
			for i := 0; i < c.workers; i++ {
				submit(Request{Program: strings.Replace(testProgramSrc, "+ 1", fmt.Sprintf("+ %d", i+1), 1)})
				<-entered
			}
			// Exactly depth more distinct requests wait in the queue.
			for _, ex := range examples[:c.depth] {
				submit(Request{Example: ex})
			}
			for len(s.queue) < c.depth {
				time.Sleep(time.Millisecond)
			}

			if _, err := s.Label(context.Background(), Request{Example: examples[c.depth]}); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("err = %v, want ErrOverloaded", err)
			}
			close(release)
			for i := 0; i < c.workers+c.depth; i++ {
				if err := <-admitted; err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Metrics().SnapshotNow().Overloaded; got != 1 {
				t.Errorf("overloaded counter = %d, want 1", got)
			}
		})
	}
}

// TestCloseDrainsInFlight verifies graceful shutdown: every admitted
// request completes with a real response, later submissions are refused.
func TestCloseDrainsInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s := New(cfg)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.computeHook = func(p *ir.Program) {
		if p.Name == "svc_test" {
			select {
			case entered <- struct{}{}:
				<-release
			default:
			}
		}
	}

	leader := make(chan error, 1)
	go func() {
		_, err := s.Label(context.Background(), Request{Program: testProgramSrc})
		leader <- err
	}()
	<-entered

	// Queue several distinct requests behind the blocked worker.
	const queued = 5
	reqs := []Request{{Example: "fig1"}, {Example: "fig2"}, {Example: "fig3"},
		{Example: "buts"}, {Example: "fig1", Deps: true}}
	results := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func(i int) {
			_, err := s.Label(context.Background(), reqs[i])
			results <- err
		}(i)
	}
	for len(s.queue) < queued {
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Close must be blocked draining, not returning early.
	select {
	case <-closed:
		t.Fatal("Close returned while requests were still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed

	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queued; i++ {
		if err := <-results; err != nil {
			t.Fatalf("drained request %d failed: %v", i, err)
		}
	}
	if _, err := s.Label(context.Background(), Request{Example: "fig1"}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close err = %v, want ErrClosed", err)
	}
}

func TestMetriczRendering(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	if _, err := s.Label(context.Background(), Request{Example: "fig2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Label(context.Background(), Request{Example: "fig2"}); err != nil {
		t.Fatal(err)
	}
	out := s.RenderMetricz()
	for _, want := range []string{
		"requests_label 2\n",
		"response_cache_hits 1\n", // the repeat is served from response bytes
		"response_cache_entries 1\n",
		"latency_count 2\n",
		"rejected_overloaded 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metricz missing %q:\n%s", want, out)
		}
	}
}

// TestContextCancelledWaiter verifies an abandoned waiter gets its ctx
// error while the computation still completes for others.
func TestContextCancelledWaiter(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s := New(cfg)
	defer s.Close()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.computeHook = func(p *ir.Program) {
		if p.Name == "svc_test" {
			entered <- struct{}{}
			<-release
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := s.Label(ctx, Request{Program: testProgramSrc})
		abandoned <- err
	}()
	<-entered
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	// The computation finished and is cached; a fresh request hits.
	if _, err := s.Label(context.Background(), Request{Program: testProgramSrc}); err != nil {
		t.Fatal(err)
	}
}

// TestResponseCacheFastPath verifies repeat requests are answered from
// cached bytes without re-entering parser, queue, or program cache.
func TestResponseCacheFastPath(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()

	first, err := s.Label(ctx, Request{Program: testProgramSrc, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Label(ctx, Request{Program: testProgramSrc, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Error("cached response differs")
	}
	snap := s.Metrics().SnapshotNow()
	if snap.RespHits != 1 {
		t.Errorf("response cache hits = %d, want 1", snap.RespHits)
	}
	if snap.Computed != 1 {
		t.Errorf("computed = %d, want 1 (repeat never reached the queue)", snap.Computed)
	}
	// A parameter change is a different response: no false sharing.
	if _, err := s.Label(ctx, Request{Program: testProgramSrc}); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().SnapshotNow().Computed; got != 2 {
		t.Errorf("computed = %d, want 2 (deps=false is a distinct document)", got)
	}
}

// TestInvalidRequestRejectedRegardlessOfCacheWarmth: a malformed request
// whose program selector collides with a cached valid request must still
// be rejected — validation runs before the response-cache fast path.
func TestInvalidRequestRejectedRegardlessOfCacheWarmth(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Label(ctx, Request{Example: "fig2"}); err != nil {
		t.Fatal(err)
	}
	// The response cache now holds the fig2 document under the
	// example-only key; the invalid both-selectors request would hash to
	// the same key.
	if _, err := s.Label(ctx, Request{Example: "fig2", Program: "garbage"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("warm cache: err = %v, want ErrBadRequest", err)
	}
	if _, err := s.Simulate(ctx, Request{Example: "fig2", Procs: -3}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative procs: err = %v, want ErrBadRequest", err)
	}
}
