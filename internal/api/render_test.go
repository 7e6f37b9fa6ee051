package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"refidem/internal/api"
	"refidem/internal/service"
	"refidem/internal/workloads"
)

// marshalIndent is the appender's oracle: encoding/json's rendering of a
// document, with the trailing newline served bodies carry.
func marshalIndent(t *testing.T, doc any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return append(b, '\n')
}

// checkLabel requires RenderLabel(doc) to equal the oracle's bytes.
func checkLabel(t *testing.T, name string, doc *api.LabelResponse) []byte {
	t.Helper()
	got, err := api.RenderLabel(doc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := marshalIndent(t, doc); !bytes.Equal(got, want) {
		t.Fatalf("%s: RenderLabel differs from MarshalIndent:\n--- got\n%s--- want\n%s", name, got, want)
	}
	return got
}

// checkSimulate requires RenderSimulate(doc) to equal the oracle's bytes.
func checkSimulate(t *testing.T, name string, doc *api.SimulateResponse) []byte {
	t.Helper()
	got, err := api.RenderSimulate(doc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := marshalIndent(t, doc); !bytes.Equal(got, want) {
		t.Fatalf("%s: RenderSimulate differs from MarshalIndent:\n--- got\n%s--- want\n%s", name, got, want)
	}
	return got
}

// checkBody decodes a served label or simulate body and requires the
// appender to render the decoded document back to the same bytes.
func checkBody(t *testing.T, name string, body []byte) {
	t.Helper()
	var head struct {
		Op string `json:"op"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var got []byte
	switch head.Op {
	case api.OpLabel:
		var doc api.LabelResponse
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = checkLabel(t, name, &doc)
	case api.OpSimulate:
		var doc api.SimulateResponse
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = checkSimulate(t, name, &doc)
	default:
		t.Fatalf("%s: not a label or simulate document (op %q)", name, head.Op)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("%s: re-rendered document differs from the body:\n--- got\n%s--- body\n%s", name, got, body)
	}
}

// TestRenderGoldens renders every document of the daemon's golden files:
// each single document back to its file's bytes, and each document of the
// batch golden to its MarshalIndent rendering.
func TestRenderGoldens(t *testing.T) {
	paths, err := filepath.Glob("../../cmd/refidemd/testdata/*.golden")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no goldens (err %v)", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if !strings.HasPrefix(name, "batch") {
			checkBody(t, name, raw)
			continue
		}
		var batch api.BatchResponse
		if err := json.Unmarshal(raw, &batch); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rendered := 0
		for _, item := range batch.Responses {
			if bytes.Contains(item, []byte(`"error"`)) {
				continue
			}
			var doc bytes.Buffer
			if err := json.Indent(&doc, item, "", "  "); err != nil {
				t.Fatal(err)
			}
			doc.WriteByte('\n')
			checkBody(t, name, doc.Bytes())
			rendered++
		}
		if rendered == 0 {
			t.Fatalf("%s: no label or simulate document in the batch", name)
		}
	}
}

// TestRenderServedDocuments renders the label document of every corpus
// program with and without dependence lists, and the simulate documents
// of the paper's loops across machines, as a server answers them.
func TestRenderServedDocuments(t *testing.T) {
	s := service.New(service.DefaultConfig())
	defer s.Close()
	ctx := context.Background()
	paths, err := filepath.Glob("../proptest/testdata/corpus/*.prog")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus programs (err %v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, deps := range []bool{false, true} {
			body, err := s.Label(ctx, api.Request{Program: string(src), Deps: deps})
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			checkBody(t, filepath.Base(path), body)
		}
	}
	for _, spec := range workloads.NamedLoops() {
		for _, procs := range []int{2, 4, 8} {
			for _, capacity := range []int{8, 128, 8191} {
				body, err := s.Simulate(ctx, api.Request{Program: spec.Src, Procs: procs, Capacity: capacity})
				if err != nil {
					t.Fatalf("%s %s: %v", spec.Bench, spec.Name, err)
				}
				checkBody(t, spec.Bench+" "+spec.Name, body)
			}
		}
	}
}

// TestRenderEdgeCases covers what the served documents rarely carry:
// strings encoding/json escapes, floats it writes in exponent form,
// empty and null lists, and optional fields set and unset.
func TestRenderEdgeCases(t *testing.T) {
	yes, no := true, false
	odd := []string{
		"flow write a[i]@S0#1 -> read a[i]@S1#2", // encoding/json writes '>' as \u003e
		"read a[(i < 3)]",
		"x && y",
		`quote " and backslash \`,
		"tab\tnewline\n",
		"caf\u00e9",
		"line\u2028separator", // written \u2028
		"invalid \xff utf-8",
		"",
	}
	region := api.RegionLabeling{
		Name: "r", Kind: "loop", IdemFraction: 0.5,
		Categories: []api.CategoryFraction{
			{Category: "read-only", Fraction: 5e-7},
			{Category: "private", Fraction: 1e-6},
			{Category: "big", Fraction: 1e21},
			{Category: "below", Fraction: 999999999999999999999},
			{Category: "negative", Fraction: -0.25},
			{Category: "negative zero", Fraction: math.Copysign(0, -1)},
			{Category: "tiny negative", Fraction: -3e-9},
		},
		Refs: []api.RefLabel{
			{Ref: "read b[i]", Segment: "s", Label: "idempotent", Category: "read-only"},
			{Ref: "write a[i]", Segment: "s", Label: "idempotent", Category: "private", RFW: &yes},
			{Ref: "write s", Segment: "s", Label: "speculative", Category: "speculative", RFW: &no, CrossSink: true},
		},
		Deps: odd,
	}
	for _, s := range odd {
		region.Refs = append(region.Refs, api.RefLabel{Ref: s, Segment: s, Label: s, Category: s})
	}
	labels := map[string]*api.LabelResponse{
		"full":          {Op: "label", Program: "p", Fingerprint: "ab", Regions: []api.RegionLabeling{region}},
		"empty regions": {Op: "label", Program: "p", Regions: []api.RegionLabeling{}},
		"null regions":  {Op: "label", Program: "p"},
		"no refs":       {Op: "label", Regions: []api.RegionLabeling{{Name: "r", Refs: []api.RefLabel{}}}},
		"null refs":     {Op: "label", Regions: []api.RegionLabeling{{Name: "r", FullyIndependent: true}, region}},
		"odd strings":   {Op: odd[0], Program: odd[5], Fingerprint: odd[7]},
	}
	for name, doc := range labels {
		checkLabel(t, name, doc)
	}
	row := api.ModelRow{Mode: "CASE", Cycles: 259, Speedup: 1.8687258687258688, DynRefs: 27,
		IdemRefs: 19, FlowViolations: 1, PeakSpecOccupancy: 4, UtilizationPct: 26.35135135135135}
	tiny := row
	tiny.Speedup, tiny.UtilizationPct, tiny.Cycles = 1e-7, math.Copysign(0, -1), math.MaxInt64
	sims := map[string]*api.SimulateResponse{
		"full":        {Op: "simulate", Program: "p", Processors: 8, SpecCapacity: 64, Models: []api.ModelRow{row, tiny}, Verified: true},
		"empty":       {Op: "simulate", Models: []api.ModelRow{}},
		"null models": {Op: "simulate", Processors: -1},
		"odd strings": {Op: odd[1], Program: odd[6], Models: []api.ModelRow{{Mode: odd[2]}}},
	}
	for name, doc := range sims {
		checkSimulate(t, name, doc)
	}
}

// TestRenderRejectsNonFinite: like MarshalIndent, the appender fails on
// NaN and the infinities, and returns no bytes.
func TestRenderRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		label := &api.LabelResponse{Op: "label", Regions: []api.RegionLabeling{{Name: "r", IdemFraction: f}}}
		cat := &api.LabelResponse{Op: "label", Regions: []api.RegionLabeling{{
			Categories: []api.CategoryFraction{{Category: "c", Fraction: f}}}}}
		for _, doc := range []*api.LabelResponse{label, cat} {
			if _, err := json.MarshalIndent(doc, "", "  "); err == nil {
				t.Fatalf("MarshalIndent accepted %v", f)
			}
			if b, err := api.RenderLabel(doc); err == nil || b != nil {
				t.Errorf("RenderLabel(%v) = %d bytes, %v; want no bytes and an error", f, len(b), err)
			}
		}
		speedup := &api.SimulateResponse{Models: []api.ModelRow{{Speedup: f}}}
		util := &api.SimulateResponse{Models: []api.ModelRow{{UtilizationPct: f}}}
		for _, doc := range []*api.SimulateResponse{speedup, util} {
			if b, err := api.RenderSimulate(doc); err == nil || b != nil {
				t.Errorf("RenderSimulate(%v) = %d bytes, %v; want no bytes and an error", f, len(b), err)
			}
		}
	}
}

// TestRendererCoversEveryField lists every field of the rendered
// documents with its JSON tag. A field added to one of these types fails
// here until the appender (render.go) writes it and the list is updated.
func TestRendererCoversEveryField(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeOf(api.LabelResponse{}): {
			"Op op", "Program program", "Fingerprint fingerprint", "Regions regions"},
		reflect.TypeOf(api.RegionLabeling{}): {
			"Name name", "Kind kind", "FullyIndependent fully_independent",
			"IdemFraction idem_fraction", "Categories categories,omitempty",
			"Refs refs", "Deps deps,omitempty"},
		reflect.TypeOf(api.CategoryFraction{}): {"Category category", "Fraction fraction"},
		reflect.TypeOf(api.RefLabel{}): {
			"Ref ref", "Segment segment", "Label label", "Category category",
			"RFW rfw,omitempty", "CrossSink cross_sink"},
		reflect.TypeOf(api.SimulateResponse{}): {
			"Op op", "Program program", "Fingerprint fingerprint", "Processors processors",
			"SpecCapacity spec_capacity", "Models models", "Verified verified"},
		reflect.TypeOf(api.ModelRow{}): {
			"Mode mode", "Cycles cycles", "Speedup speedup", "DynRefs dyn_refs",
			"IdemRefs idem_refs", "Overflows overflows",
			"OverflowStallCycles overflow_stall_cycles", "FlowViolations flow_violations",
			"ControlViolations control_violations", "PeakSpecOccupancy peak_spec_occupancy",
			"UtilizationPct utilization_pct"},
	}
	for typ, fields := range want {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			got = append(got, f.Name+" "+f.Tag.Get("json"))
		}
		if !reflect.DeepEqual(got, fields) {
			t.Errorf("%s fields changed; update the appender and this list:\n got %q\nwant %q", typ.Name(), got, fields)
		}
	}
}
