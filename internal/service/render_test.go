package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// marshalResponse renders a response document with encoding/json: two-space
// indent, trailing newline. It is the oracle of the appender that renders
// served documents (api.RenderLabel, api.RenderSimulate).
func marshalResponse(doc any) ([]byte, error) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// TestServedBodiesExactSize requires every path that renders a label or
// simulate body to serve it at exactly its length: the response cache,
// the store and the router keep these slices, so spare capacity would be
// held for their lifetime. Each body must also equal encoding/json's
// rendering of its own decoded document.
func TestServedBodiesExactSize(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()
	reqs := []struct {
		name string
		req  Request
	}{
		{"label", Request{Op: OpLabel, Program: deltaBaseSrc}},
		{"label repeat", Request{Op: OpLabel, Program: deltaBaseSrc}},
		{"label deps", Request{Op: OpLabel, Example: "fig2", Deps: true}},
		{"label delta", Request{Op: OpLabel, Base: fpHexOf(t, deltaBaseSrc),
			Patches: []RegionPatch{{Region: "r1", Source: deltaPatchR1}}}},
		{"simulate", Request{Op: OpSimulate, Example: "fig2", Procs: 4, Capacity: 8191}},
		{"simulate kept rows", Request{Op: OpSimulate, Example: "fig2", Procs: 4, Capacity: 4096}},
		{"simulate small capacity", Request{Op: OpSimulate, Example: "fig2", Procs: 4, Capacity: 2}},
	}
	for _, c := range reqs {
		body, err := s.Do(ctx, c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cap(body) != len(body) {
			t.Errorf("%s: body has cap %d, len %d", c.name, cap(body), len(body))
		}
		var doc any = &LabelResponse{}
		if c.req.Op == OpSimulate {
			doc = &SimulateResponse{}
		}
		if err := json.Unmarshal(body, doc); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want, err := marshalResponse(doc); err != nil || !bytes.Equal(body, want) {
			t.Errorf("%s: body differs from encoding/json's rendering (err %v):\n%s", c.name, err, body)
		}
	}
	if m := s.Metrics(); m.simAnsweredKept.Load() == 0 {
		t.Error("no simulate was answered from kept rows; the test no longer covers that path")
	}
}
