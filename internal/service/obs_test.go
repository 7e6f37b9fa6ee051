package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"refidem/internal/obs"
)

// TestFlightRecorderByteIdentity pins the tentpole invariant: the flight
// recorder must not change a single response byte. The same request
// sequence runs against a recording and a non-recording server and every
// answer must match exactly, including repeats served by the response
// cache and the store-less compute path.
func TestFlightRecorderByteIdentity(t *testing.T) {
	plain := New(testConfig())
	defer plain.Close()
	traced := New(func() Config { c := testConfig(); c.FlightSpans = 32; return c }())
	defer traced.Close()

	reqs := []Request{
		{Op: OpLabel, Example: "fig2"},
		{Op: OpSimulate, Example: "fig2"},
		{Op: OpLabel, Program: testProgramSrc},
		{Op: OpLabel, Example: "fig2"}, // response-cache repeat
		{Op: OpSimulate, Example: "intro", Procs: 2},
	}
	for i, req := range reqs {
		a, err1 := plain.Do(context.Background(), req)
		b, tid, err2 := traced.DoTraced(context.Background(), req)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("req %d: error divergence: %v vs %v", i, err1, err2)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("req %d: response bytes differ with flight recording on", i)
		}
		if tid == 0 {
			t.Fatalf("req %d: recording server returned trace ID 0", i)
		}
	}
	if got, _, _ := plain.DoTraced(context.Background(), Request{Op: OpLabel, Example: "fig2"}); got == nil {
		t.Fatal("DoTraced failed on the non-recording server")
	} else if _, tid, _ := plain.DoTraced(context.Background(), Request{Op: OpLabel, Example: "fig2"}); tid != 0 {
		t.Fatal("non-recording server handed out a trace ID")
	}
}

// TestFlightRecorderSpans checks the recorded spans carry the request's
// identity, outcome and source.
func TestFlightRecorderSpans(t *testing.T) {
	cfg := testConfig()
	cfg.FlightSpans = 16
	s := New(cfg)
	defer s.Close()

	if _, err := s.Label(context.Background(), Request{Example: "fig2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Label(context.Background(), Request{Example: "fig2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Label(context.Background(), Request{Example: "no_such_example"}); err == nil {
		t.Fatal("unknown example must fail")
	}

	spans := s.FlightRecorder().Snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	// Newest first: bad_request, resp_cache hit, compute.
	if spans[0].Outcome != "bad_request" || spans[0].HasFingerprint {
		t.Errorf("span 3 = %+v, want bad_request with no fingerprint", spans[0])
	}
	if spans[1].Outcome != "ok" || spans[1].Source != "resp_cache" {
		t.Errorf("span 2 = outcome %q source %q, want ok/resp_cache", spans[1].Outcome, spans[1].Source)
	}
	if spans[2].Outcome != "ok" || spans[2].Source != "compute" || !spans[2].HasFingerprint {
		t.Errorf("span 1 = %+v, want ok/compute with fingerprint", spans[2])
	}
	if spans[2].Op != "label" {
		t.Errorf("span 1 op = %q, want label", spans[2].Op)
	}
	if spans[2].Stages[obs.StageCompute] <= 0 {
		t.Errorf("computed span has no compute time: %v", spans[2].Stages)
	}
	if spans[1].Stages[obs.StageCompute] != 0 {
		t.Errorf("resp-cache span claims compute time: %v", spans[1].Stages)
	}
}

// TestTracezEndpoint drives the HTTP surface: the trace-ID header, the
// text table and the JSON document.
func TestTracezEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.FlightSpans = 16
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/label", "application/json",
		strings.NewReader(`{"example":"fig2"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tid := resp.Header.Get("X-Refidem-Trace-Id")
	if tid == "" {
		t.Fatal("no X-Refidem-Trace-Id header on a recorded request")
	}
	wantID, err := strconv.ParseUint(tid, 10, 64)
	if err != nil || wantID == 0 {
		t.Fatalf("bad trace id %q: %v", tid, err)
	}

	text, err := http.Get(ts.URL + "/debug/tracez")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(text.Body)
	text.Body.Close()
	if !strings.Contains(string(body), "label") || !strings.Contains(string(body), "ok") {
		t.Fatalf("tracez text lacks the recorded span:\n%s", body)
	}

	jr, err := http.Get(ts.URL + "/debug/tracez?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var doc tracezDoc
	if err := json.NewDecoder(jr.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if !doc.Enabled || doc.Capacity != 16 {
		t.Fatalf("tracez doc = enabled %v capacity %d, want true/16", doc.Enabled, doc.Capacity)
	}
	found := false
	for _, sp := range doc.Spans {
		if sp.TraceID == wantID {
			found = true
			if sp.Op != "label" || sp.Outcome != "ok" || sp.Fingerprint == "" {
				t.Fatalf("span %d = %+v, want ok label with fingerprint", wantID, sp)
			}
		}
	}
	if !found {
		t.Fatalf("span %d missing from tracez JSON: %+v", wantID, doc.Spans)
	}
}

// TestTracezDisabled pins the off-by-default rendering.
func TestTracezDisabled(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/label", "application/json",
		strings.NewReader(`{"example":"fig2"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get("X-Refidem-Trace-Id"); h != "" {
		t.Fatalf("disabled recorder still sent trace header %q", h)
	}
	text, _ := http.Get(ts.URL + "/debug/tracez")
	body, _ := io.ReadAll(text.Body)
	text.Body.Close()
	if !strings.Contains(string(body), "disabled") {
		t.Fatalf("tracez text should say disabled:\n%s", body)
	}
	jr, _ := http.Get(ts.URL + "/debug/tracez?format=json")
	var doc tracezDoc
	json.NewDecoder(jr.Body).Decode(&doc)
	jr.Body.Close()
	if doc.Enabled {
		t.Fatal("tracez JSON claims enabled on a disabled recorder")
	}
}

// TestTimelineEndpoint checks /v1/simulate?timeline=1: a valid,
// deterministic Chrome trace document with one process per speculative
// mode, counted under requests_timeline, leaving plain simulate answers
// untouched.
func TestTimelineEndpoint(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() []byte {
		resp, err := http.Post(ts.URL+"/v1/simulate?timeline=1", "application/json",
			strings.NewReader(`{"example":"fig2"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("timeline export: %d\n%s", resp.StatusCode, body)
		}
		return body
	}
	a, b := get(), get()
	if !bytes.Equal(a, b) {
		t.Fatal("timeline export is not deterministic")
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procs[e.Args.Name] = true
		}
	}
	if !procs["HOSE"] || !procs["CASE"] {
		t.Fatalf("trace processes = %v, want HOSE and CASE", procs)
	}

	if snap := s.Metrics().SnapshotNow(); snap.TimelineRequests != 2 {
		t.Fatalf("TimelineRequests = %d, want 2", snap.TimelineRequests)
	}
	if !strings.Contains(s.RenderMetricz(), "requests_timeline 2\n") {
		t.Fatal("metricz lacks requests_timeline")
	}

	// A plain simulate answer must be unaffected by timeline exports.
	resp, err := s.Simulate(context.Background(), Request{Example: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(testConfig())
	defer fresh.Close()
	want, err := fresh.Simulate(context.Background(), Request{Example: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, want) {
		t.Fatal("simulate response changed after timeline exports")
	}
}

func TestSimulateTimelineValidation(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	var buf bytes.Buffer
	err := s.SimulateTimeline(context.Background(), Request{Program: testProgramSrc, Example: "fig2"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "not both") {
		t.Fatalf("both selectors should fail validation, got %v", err)
	}
	if err := s.SimulateTimeline(context.Background(), Request{Example: "nope"}, &buf); err == nil {
		t.Fatal("unknown example should fail")
	}
	// The selector rules Do enforces apply here too: a registered base
	// must not silently win over the program, and patches must not be
	// silently dropped from a full-program request.
	if _, err := s.Label(context.Background(), Request{Program: deltaBaseSrc}); err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]Request{
		"program and base":     {Program: testProgramSrc, Base: fpHexOf(t, deltaBaseSrc)},
		"patches without base": {Program: testProgramSrc, Patches: []RegionPatch{{Region: "r1", Source: deltaPatchR1}}},
	} {
		if err := s.SimulateTimeline(context.Background(), req, &buf); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
	if buf.Len() != 0 {
		t.Fatal("failed exports must not write output")
	}
}

// TestSnapshotCoversEveryCounter is the satellite guard: every atomic
// counter on Metrics must surface in Snapshot (the bug being fixed:
// storeReadErrors, storeProbeFailures and storeWarmEntries silently
// missing from SnapshotNow).
func TestSnapshotCoversEveryCounter(t *testing.T) {
	atomicInt := reflect.TypeOf(atomic.Int64{})
	mt := reflect.TypeOf(Metrics{})
	st := reflect.TypeOf(Snapshot{})
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		var want string
		switch {
		case f.Type == atomicInt:
			want = strings.ToUpper(f.Name[:1]) + f.Name[1:]
		case f.Name == "latency":
			want = "LatencyCount" // the histogram surfaces as its total
		default:
			continue
		}
		if _, ok := st.FieldByName(want); !ok {
			t.Errorf("Metrics.%s has no Snapshot field %s", f.Name, want)
		}
	}

	// Behavioral check for the three previously-dropped counters.
	m := newMetrics()
	m.storeReadErrors.Add(3)
	m.storeProbeFailures.Add(5)
	m.storeWarmEntries.Add(7)
	snap := m.SnapshotNow()
	if snap.StoreReadErrors != 3 || snap.StoreProbeFailures != 5 || snap.StoreWarmEntries != 7 {
		t.Fatalf("snapshot dropped store counters: %+v", snap)
	}
}
