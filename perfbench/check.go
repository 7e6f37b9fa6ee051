package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"refidem/internal/api"
)

// The capacity sweep of the golden figures runs on this loop.
const (
	sweepBench = "TOMCATV"
	sweepLoop  = "MAIN_DO80"
)

// goldenFigures is the part of scripts/golden_figures.json the simulate
// checks compare against: the paper loops at the default machine and the
// TOMCATV speculative-storage capacity sweep.
type goldenFigures struct {
	Figures  []figureRow   `json:"figures6to9"`
	Capacity []capacityRow `json:"ablation_capacity"`
}

type figureRow struct {
	Bench         string `json:"bench"`
	Loop          string `json:"loop"`
	SeqCycles     int64  `json:"seq_cycles"`
	HoseCycles    int64  `json:"hose_cycles"`
	CaseCycles    int64  `json:"case_cycles"`
	HoseOverflows int64  `json:"hose_overflows"`
	CaseOverflows int64  `json:"case_overflows"`
}

type capacityRow struct {
	Capacity      int     `json:"capacity"`
	HoseSpeedup   float64 `json:"hose_speedup"`
	CaseSpeedup   float64 `json:"case_speedup"`
	HoseOverflows int64   `json:"hose_overflows"`
}

func loadGolden(repo string) (*goldenFigures, error) {
	raw, err := os.ReadFile(filepath.Join(repo, "scripts", "golden_figures.json"))
	if err != nil {
		return nil, fmt.Errorf("reading golden figures: %w", err)
	}
	var g goldenFigures
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("decoding golden figures: %w", err)
	}
	if len(g.Figures) == 0 || len(g.Capacity) == 0 {
		return nil, fmt.Errorf("golden figures lack figures6to9 or ablation_capacity")
	}
	return &g, nil
}

func (g *goldenFigures) figure(bench, loop string) *figureRow {
	for i := range g.Figures {
		if g.Figures[i].Bench == bench && g.Figures[i].Loop == loop {
			return &g.Figures[i]
		}
	}
	return nil
}

func (g *goldenFigures) capacity(c int) *capacityRow {
	for i := range g.Capacity {
		if g.Capacity[i].Capacity == c {
			return &g.Capacity[i]
		}
	}
	return nil
}

// decodeStrict decodes one JSON document, rejecting unknown fields and
// trailing data, so a corrupted body cannot pass as a valid one.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decoding response: trailing data")
	}
	return nil
}

// checkResponse verifies one final response against the input's
// independently derived expectations.
func checkResponse(in *input, body []byte) error {
	if in.kind == kindSimulate {
		return checkSimulate(in, body)
	}
	return checkLabel(in.want, body)
}

// checkLabel checks a label (or delta label) response: the wire document
// decodes, and its program name, fingerprint, region names and per-region
// reference counts equal the benchmark's own.
func checkLabel(want *shape, body []byte) error {
	var doc api.LabelResponse
	if err := decodeStrict(body, &doc); err != nil {
		return err
	}
	if doc.Op != api.OpLabel {
		return fmt.Errorf("label response op %q", doc.Op)
	}
	if doc.Program != want.name || doc.Fingerprint != want.fingerprint {
		return fmt.Errorf("label response for %s/%.12s, want %s/%.12s", doc.Program, doc.Fingerprint, want.name, want.fingerprint)
	}
	if len(doc.Regions) != len(want.regions) {
		return fmt.Errorf("label response has %d regions, want %d", len(doc.Regions), len(want.regions))
	}
	for i, r := range doc.Regions {
		w := want.regions[i]
		if r.Name != w.name || len(r.Refs) != w.refs {
			return fmt.Errorf("region %d is %s with %d refs, want %s with %d", i, r.Name, len(r.Refs), w.name, w.refs)
		}
		if r.IdemFraction < 0 || r.IdemFraction > 1 {
			return fmt.Errorf("region %s idem_fraction %v", r.Name, r.IdemFraction)
		}
		for _, ref := range r.Refs {
			if ref.Label != "idempotent" && ref.Label != "speculative" {
				return fmt.Errorf("region %s ref %q label %q", r.Name, ref.Ref, ref.Label)
			}
		}
	}
	return nil
}

// checkSimulate checks a simulate response: it decodes, reports the
// requested program and machine, is verified, carries the three models in
// order with consistent speedups, and at the golden points reproduces the
// paper figures' cycles and overflows exactly.
func checkSimulate(in *input, body []byte) error {
	var doc api.SimulateResponse
	if err := decodeStrict(body, &doc); err != nil {
		return err
	}
	if doc.Op != api.OpSimulate || !doc.Verified {
		return fmt.Errorf("simulate response op %q verified %v", doc.Op, doc.Verified)
	}
	if doc.Program != in.want.name || doc.Fingerprint != in.want.fingerprint {
		return fmt.Errorf("simulate response for %s/%.12s, want %s/%.12s", doc.Program, doc.Fingerprint, in.want.name, in.want.fingerprint)
	}
	if doc.Processors != in.procs || doc.SpecCapacity != in.capacity {
		return fmt.Errorf("simulate response machine %d/%d, want %d/%d", doc.Processors, doc.SpecCapacity, in.procs, in.capacity)
	}
	if len(doc.Models) != 3 || doc.Models[0].Mode != "sequential" || doc.Models[1].Mode != "HOSE" || doc.Models[2].Mode != "CASE" {
		return fmt.Errorf("simulate response models %+v", doc.Models)
	}
	seq, hose, cas := doc.Models[0], doc.Models[1], doc.Models[2]
	for _, m := range doc.Models {
		if m.Cycles <= 0 || m.Speedup != float64(seq.Cycles)/float64(m.Cycles) {
			return fmt.Errorf("%s: cycles %d speedup %v inconsistent with %d sequential cycles", m.Mode, m.Cycles, m.Speedup, seq.Cycles)
		}
	}
	if g := in.golden; g != nil {
		got := [5]int64{seq.Cycles, hose.Cycles, cas.Cycles, hose.Overflows, cas.Overflows}
		want := [5]int64{g.SeqCycles, g.HoseCycles, g.CaseCycles, g.HoseOverflows, g.CaseOverflows}
		if got != want {
			return fmt.Errorf("%s %s at the paper machine: seq/HOSE/CASE cycles and HOSE/CASE overflows %v, golden %v", g.Bench, g.Loop, got, want)
		}
	}
	if c := in.capPoint; c != nil {
		if !sameFloat(hose.Speedup, c.HoseSpeedup) || !sameFloat(cas.Speedup, c.CaseSpeedup) || hose.Overflows != c.HoseOverflows {
			return fmt.Errorf("capacity %d: HOSE %v/%d CASE %v, golden HOSE %v/%d CASE %v", c.Capacity,
				hose.Speedup, hose.Overflows, cas.Speedup, c.HoseSpeedup, c.HoseOverflows, c.CaseSpeedup)
		}
	}
	return nil
}

// sameFloat compares speedups read back from JSON (both sides are the same
// float64 division, so only decoding could differ).
func sameFloat(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
