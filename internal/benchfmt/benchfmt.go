// Package benchfmt defines the BENCH_results.json document shape that
// cmd/benchjson writes and gates from `go test -bench` output.
package benchfmt

// Result holds one benchmark's parsed measurements.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Document is the BENCH_results.json shape: current measurements plus
// the embedded reference baseline.
type Document struct {
	Go         string            `json:"go,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
	Baseline   map[string]Result `json:"baseline,omitempty"`
}
