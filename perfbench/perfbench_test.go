package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refidem/internal/api"
	"refidem/internal/lang"
	"refidem/internal/service"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b, c := labelColdInputs(7, domLabel, 200), labelColdInputs(7, domLabel, 200), labelColdInputs(8, domLabel, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("label-cold inputs differ between two generations with one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("label-cold inputs equal for different seeds")
	}
	seen := map[string]bool{}
	for i, in := range a {
		if seen[in.want.fingerprint] {
			t.Fatalf("label-cold input %d repeats a program", i)
		}
		seen[in.want.fingerprint] = true
	}
	// The stream is the same however it is cut into chunks.
	cs := newColdStream(7, domLabel)
	var chunked []input
	for from := 0; from < len(a); from += 37 {
		cs.fill(from, 37)
		for i := from; i < min(from+37, len(a)); i++ {
			in, ok := cs.input(i)
			if !ok {
				t.Fatalf("chunked stream lacks input %d", i)
			}
			chunked = append(chunked, *in)
		}
	}
	if !reflect.DeepEqual(a, chunked) {
		t.Fatal("label-cold inputs differ when generated in chunks")
	}

	loops, err := loadPaperLoops()
	if err != nil {
		t.Fatal(err)
	}
	gold, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := newSimStream(7, 2000, loops, gold)
	s2, _ := newSimStream(7, 2000, loops, gold)
	s3, _ := newSimStream(8, 2000, loops, gold)
	if !reflect.DeepEqual(s1.points, s2.points) || reflect.DeepEqual(s1.points, s3.points) {
		t.Fatal("simulate-paper inputs are not a function of the seed")
	}
	type triple struct {
		loop            string
		procs, capacity int
	}
	triples := map[triple]bool{}
	for i := range s1.points {
		in := s1.input(i)
		k := triple{in.req.Program, in.procs, in.capacity}
		if triples[k] {
			t.Fatalf("simulate-paper input %d repeats a (loop, procs, capacity) triple", i)
		}
		triples[k] = true
	}

	p1, err := newMixedPool()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := newMixedPool()
	same := 0
	for i := 0; i < 500; i++ {
		x, y, z := p1.input(7, i), p2.input(7, i), p1.input(8, i)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("mixed-zipf input %d differs between two pools", i)
		}
		if reflect.DeepEqual(x, z) {
			same++
		}
	}
	// The pool is fixed; the seed draws the sequence. Two seeds agree at an
	// index only when both draw the same program and operation, which the
	// Zipf head makes common but far from universal.
	if same > 250 {
		t.Fatalf("mixed-zipf sequences of two seeds agree at %d of 500 indices", same)
	}
}

// The label checks compare against the generator's program; it must be
// what the server's parser sees.
func TestGeneratorShapeMatchesParse(t *testing.T) {
	for i, in := range labelColdInputs(3, domLabel, 300) {
		p, err := lang.Parse(in.req.Program)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if got := shapeOf(p, p.Format()); !reflect.DeepEqual(got, in.want) {
			t.Fatalf("input %d: parsed shape %+v, generator shape %+v", i, got, in.want)
		}
	}
}

func serve1(t *testing.T, req api.Request) []byte {
	t.Helper()
	s := service.New(serverConfig())
	defer s.Close()
	body, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestCheckersRejectCorruption(t *testing.T) {
	in := labelColdInputs(1, domLabel, 20)[4]
	body := serve1(t, in.req)
	if err := checkResponse(&in, body); err != nil {
		t.Fatalf("valid label response rejected: %v", err)
	}
	var doc api.LabelResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	corrupt := map[string]func(d *api.LabelResponse){
		"region name":  func(d *api.LabelResponse) { d.Regions[0].Name += "x" },
		"dropped ref":  func(d *api.LabelResponse) { d.Regions[0].Refs = d.Regions[0].Refs[1:] },
		"fingerprint":  func(d *api.LabelResponse) { d.Fingerprint = strings.Repeat("0", 64) },
		"label string": func(d *api.LabelResponse) { d.Regions[0].Refs[0].Label = "maybe" },
	}
	for name, f := range corrupt {
		d := doc
		d.Regions = append([]api.RegionLabeling(nil), doc.Regions...)
		d.Regions[0].Refs = append([]api.RefLabel(nil), doc.Regions[0].Refs...)
		f(&d)
		bad, _ := json.Marshal(d)
		if checkResponse(&in, bad) == nil {
			t.Errorf("label check accepted a body with a corrupted %s", name)
		}
	}
	if checkResponse(&in, body[:len(body)/2]) == nil {
		t.Error("label check accepted a truncated body")
	}

	loops, err := loadPaperLoops()
	if err != nil {
		t.Fatal(err)
	}
	gold, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	sims, err := newSimStream(1, 30, loops, gold)
	if err != nil {
		t.Fatal(err)
	}
	sim := sims.input(0) // the first loop at the paper's machine: a golden point
	if sim.golden == nil {
		t.Fatal("first simulate input is not a golden point")
	}
	sbody := serve1(t, sim.req)
	if err := checkResponse(&sim, sbody); err != nil {
		t.Fatalf("valid simulate response rejected: %v", err)
	}
	for _, edit := range [][2]string{{`"verified": true`, `"verified": false`}, {`"mode": "CASE"`, `"mode": "HOSE"`}} {
		if checkResponse(&sim, bytes.Replace(sbody, []byte(edit[0]), []byte(edit[1]), 1)) == nil {
			t.Errorf("simulate check accepted %s → %s", edit[0], edit[1])
		}
	}
	wrong := *sim.golden
	wrong.CaseCycles++
	sim.golden = &wrong
	if checkResponse(&sim, sbody) == nil {
		t.Error("simulate check accepted a response against a wrong golden cycle count")
	}
}

func TestDriverNeverExceedsClients(t *testing.T) {
	const clients = 3
	var inflight, peak atomic.Int64
	in := &input{kind: kindLabel}
	dr := &driver{
		clients: clients,
		input:   func(i int) (*input, bool) { return in, true },
		do: func(ctx context.Context, i int, in *input) ([]byte, error) {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
			return nil, nil
		},
		check: func(*input, []byte) error { return nil },
	}
	w := dr.run(150 * time.Millisecond)
	if w.attempted == 0 || w.failed != 0 {
		t.Fatalf("attempted %d failed %d", w.attempted, w.failed)
	}
	if p := peak.Load(); p > clients || p < 1 {
		t.Fatalf("peak in-flight requests %d with %d clients", p, clients)
	}
}

// smoke runs one short untraced (or traced) run and returns its result
// line and full output.
func smoke(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out bytes.Buffer
	code, err := run(append([]string{"--seconds", "1", "--repo", "..", "--out", t.TempDir()}, args...), &out)
	if err != nil || code != 0 {
		t.Fatalf("run %v: code %d, %v\n%s", args, code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return res, out.String()
}

func digestOf(t *testing.T, out string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "responses_sha256 "); ok {
			return strings.Fields(rest)[0]
		}
	}
	t.Fatal("no responses_sha256 line")
	return ""
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload")
	}
	digests := map[string]string{}
	for _, wl := range workloadNames {
		res, out := smoke(t, "--workload", wl, "--seed", "5")
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct %v, %d of %d failed", wl, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || v.Value <= 0 {
				t.Errorf("%s: metric %s = %+v", wl, m.name, v)
			}
		}
		digests[wl] = digestOf(t, out)
	}
	// The same seed gives the same responses; another seed other ones.
	_, again := smoke(t, "--workload", wlLabelCold, "--seed", "5")
	_, other := smoke(t, "--workload", wlLabelCold, "--seed", "6")
	if d := digestOf(t, again); d != digests[wlLabelCold] {
		t.Errorf("label-cold digest %s, then %s with the same seed", digests[wlLabelCold], d)
	}
	if digestOf(t, other) == digests[wlLabelCold] {
		t.Error("label-cold digest unchanged by a different seed")
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a traced run")
	}
	res, out := smoke(t, "--workload", wlMixedZipf, "--seed", "2", "--trace", "1")
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"cluster.router_hop_us", "service.resp_cache_hit_ratio", "service.delta_reuse_ratio", "transport.self_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("mixed-zipf %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if !strings.Contains(out, "ledger mixed-zipf:") {
		t.Error("no ledger table")
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the command
// runs and prints.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range doc.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, command %v", wls, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, command %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, command %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestHostSpeedScaling(t *testing.T) {
	nominal := probe{compute: computeRef, serve: serveRef}
	if s := hostSpeed(nominal, nominal); math.Abs(s-1) > 1e-12 {
		t.Fatalf("speed at the nominal rates = %v, want 1", s)
	}
	// A host at half speed on both kernels: its rates double, its times
	// halve, once scaled.
	half := probe{compute: computeRef / 2, serve: serveRef / 2}
	s := hostSpeed(half, half)
	if r := scaled([]float64{100}, []float64{s}, -1)[0]; math.Abs(r-200) > 1e-9 {
		t.Errorf("scaled rate %v, want 200", r)
	}
	if d := scaled([]float64{4}, []float64{s}, 1)[0]; math.Abs(d-2) > 1e-9 {
		t.Errorf("scaled time %v, want 2", d)
	}
	host, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer host.close()
	if p, err := host.sample(); err != nil || p.compute <= 0 || p.serve <= 0 {
		t.Fatalf("probe %+v, %v", p, err)
	}
}
