package api

import (
	"encoding/json"
	"strconv"
	"sync"
)

// The renderer of label and simulate documents. RenderLabel and
// RenderSimulate append a document's bytes directly: exactly what
// json.MarshalIndent(doc, "", "  ") returns, plus a trailing newline. They
// copy verbatim only what encoding/json copies verbatim — strings of
// printable ASCII other than `"`, `\`, `<`, `>` and `&`, floats that are 0
// or in [1e-6, 1e21), integers and booleans — and hand every other string
// or float to encoding/json, so escaping and number formatting keep one
// implementation. render_test.go holds the appender to MarshalIndent.

// renderBufs pools the scratch buffers documents are appended into; a
// rendered document is copied out at its exact size.
var renderBufs = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

// maxPooledRender bounds the buffers returned to renderBufs, so one huge
// document does not pin its buffer.
const maxPooledRender = 256 << 10

// RenderLabel renders a label document as json.MarshalIndent(doc, "",
// "  ") plus "\n". Like MarshalIndent it fails, returning no bytes, on a
// NaN or infinite fraction.
func RenderLabel(doc *LabelResponse) ([]byte, error) {
	bp := renderBufs.Get().(*[]byte)
	b, err := appendLabel((*bp)[:0], doc)
	return finishRender(bp, b, err)
}

// RenderSimulate renders a simulate document as json.MarshalIndent(doc,
// "", "  ") plus "\n". Like MarshalIndent it fails, returning no bytes,
// on a NaN or infinite speedup or utilization.
func RenderSimulate(doc *SimulateResponse) ([]byte, error) {
	bp := renderBufs.Get().(*[]byte)
	b, err := appendSimulate((*bp)[:0], doc)
	return finishRender(bp, b, err)
}

// finishRender copies a rendered document out of its pooled buffer at
// exactly its length, since served bytes are kept by the caches, and
// returns the buffer to the pool.
func finishRender(bp *[]byte, b []byte, err error) ([]byte, error) {
	if err != nil {
		renderBufs.Put(bp)
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	if cap(b) <= maxPooledRender {
		*bp = b[:0]
		renderBufs.Put(bp)
	}
	return out, nil
}

func appendLabel(b []byte, d *LabelResponse) ([]byte, error) {
	b = append(b, "{\n  \"op\": "...)
	b = appendString(b, d.Op)
	b = append(b, ",\n  \"program\": "...)
	b = appendString(b, d.Program)
	b = append(b, ",\n  \"fingerprint\": "...)
	b = appendString(b, d.Fingerprint)
	b = append(b, ",\n  \"regions\": "...)
	switch {
	case d.Regions == nil:
		b = append(b, "null"...)
	case len(d.Regions) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range d.Regions {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendRegion(b, &d.Regions[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...), nil
}

// appendRegion appends one element of a label document's regions array.
func appendRegion(b []byte, r *RegionLabeling) ([]byte, error) {
	var err error
	b = append(b, "\n    {\n      \"name\": "...)
	b = appendString(b, r.Name)
	b = append(b, ",\n      \"kind\": "...)
	b = appendString(b, r.Kind)
	b = append(b, ",\n      \"fully_independent\": "...)
	b = strconv.AppendBool(b, r.FullyIndependent)
	b = append(b, ",\n      \"idem_fraction\": "...)
	if b, err = appendFloat(b, r.IdemFraction); err != nil {
		return nil, err
	}
	if len(r.Categories) > 0 {
		b = append(b, ",\n      \"categories\": ["...)
		for i, c := range r.Categories {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        {\n          \"category\": "...)
			b = appendString(b, c.Category)
			b = append(b, ",\n          \"fraction\": "...)
			if b, err = appendFloat(b, c.Fraction); err != nil {
				return nil, err
			}
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	b = append(b, ",\n      \"refs\": "...)
	switch {
	case r.Refs == nil:
		b = append(b, "null"...)
	case len(r.Refs) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range r.Refs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRef(b, &r.Refs[i])
		}
		b = append(b, "\n      ]"...)
	}
	if len(r.Deps) > 0 {
		b = append(b, ",\n      \"deps\": ["...)
		for i, d := range r.Deps {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        "...)
			b = appendString(b, d)
		}
		b = append(b, "\n      ]"...)
	}
	return append(b, "\n    }"...), nil
}

// appendRef appends one element of a region's refs array.
func appendRef(b []byte, r *RefLabel) []byte {
	b = append(b, "\n        {\n          \"ref\": "...)
	b = appendString(b, r.Ref)
	b = append(b, ",\n          \"segment\": "...)
	b = appendString(b, r.Segment)
	b = append(b, ",\n          \"label\": "...)
	b = appendString(b, r.Label)
	b = append(b, ",\n          \"category\": "...)
	b = appendString(b, r.Category)
	if r.RFW != nil {
		b = append(b, ",\n          \"rfw\": "...)
		b = strconv.AppendBool(b, *r.RFW)
	}
	b = append(b, ",\n          \"cross_sink\": "...)
	b = strconv.AppendBool(b, r.CrossSink)
	return append(b, "\n        }"...)
}

func appendSimulate(b []byte, d *SimulateResponse) ([]byte, error) {
	b = append(b, "{\n  \"op\": "...)
	b = appendString(b, d.Op)
	b = append(b, ",\n  \"program\": "...)
	b = appendString(b, d.Program)
	b = append(b, ",\n  \"fingerprint\": "...)
	b = appendString(b, d.Fingerprint)
	b = append(b, ",\n  \"processors\": "...)
	b = strconv.AppendInt(b, int64(d.Processors), 10)
	b = append(b, ",\n  \"spec_capacity\": "...)
	b = strconv.AppendInt(b, int64(d.SpecCapacity), 10)
	b = append(b, ",\n  \"models\": "...)
	switch {
	case d.Models == nil:
		b = append(b, "null"...)
	case len(d.Models) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range d.Models {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendModel(b, &d.Models[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"verified\": "...)
	b = strconv.AppendBool(b, d.Verified)
	return append(b, "\n}\n"...), nil
}

// appendModel appends one element of a simulate document's models array.
func appendModel(b []byte, m *ModelRow) ([]byte, error) {
	var err error
	b = append(b, "\n    {\n      \"mode\": "...)
	b = appendString(b, m.Mode)
	b = append(b, ",\n      \"cycles\": "...)
	b = strconv.AppendInt(b, m.Cycles, 10)
	b = append(b, ",\n      \"speedup\": "...)
	if b, err = appendFloat(b, m.Speedup); err != nil {
		return nil, err
	}
	b = append(b, ",\n      \"dyn_refs\": "...)
	b = strconv.AppendInt(b, m.DynRefs, 10)
	b = append(b, ",\n      \"idem_refs\": "...)
	b = strconv.AppendInt(b, m.IdemRefs, 10)
	b = append(b, ",\n      \"overflows\": "...)
	b = strconv.AppendInt(b, m.Overflows, 10)
	b = append(b, ",\n      \"overflow_stall_cycles\": "...)
	b = strconv.AppendInt(b, m.OverflowStallCycles, 10)
	b = append(b, ",\n      \"flow_violations\": "...)
	b = strconv.AppendInt(b, m.FlowViolations, 10)
	b = append(b, ",\n      \"control_violations\": "...)
	b = strconv.AppendInt(b, m.ControlViolations, 10)
	b = append(b, ",\n      \"peak_spec_occupancy\": "...)
	b = strconv.AppendInt(b, int64(m.PeakSpecOccupancy), 10)
	b = append(b, ",\n      \"utilization_pct\": "...)
	if b, err = appendFloat(b, m.UtilizationPct); err != nil {
		return nil, err
	}
	return append(b, "\n    }"...), nil
}

// appendString appends s as a JSON string: verbatim between quotes when
// encoding/json would copy it verbatim, otherwise as encoding/json writes
// it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json writes a float64: in plain
// decimal when it is 0 or in [1e-6, 1e21), otherwise as encoding/json
// writes it, which fails on NaN and the infinities.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if f == 0 || (f >= 1e-6 && f < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	enc, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	return append(b, enc...), nil
}
