package main

import (
	"fmt"
	"testing"
)

// TestFixtureFindings runs the linter over the fixture tree and pins the
// exact finding set: every deliberate violation is caught, every
// allowlisted or suppressed or out-of-scope construct is not.
func TestFixtureFindings(t *testing.T) {
	findings, err := Lint("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(findings))
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, f.Rule)] = true
	}
	want := []string{
		"cmd/figures/main.go:15:range-map", // named map type via package var
		"cmd/figures/main.go:18:range-map", // map composite literal (parenthesized)
		"cmd/figures/main.go:21:time-now",  // renamed time import
		"internal/obs/obs.go:11:range-map", // map-typed field in the trace-export package
		"internal/other/other.go:5:math-rand",
		"internal/service/bad.go:13:range-map", // make(map) assignment
		"internal/service/bad.go:16:range-map", // map-typed struct field
		"internal/service/bad.go:20:range-map", // package-local map-returning func
		"internal/service/bad.go:23:time-now",
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing expected finding %s\ngot: %v", w, findings)
		}
	}
	if len(findings) != len(want) {
		t.Errorf("got %d findings, want %d:\n%v", len(findings), len(want), findings)
	}
}

// TestRepositoryClean is the wall itself: the repo this tool ships in
// must lint clean.
func TestRepositoryClean(t *testing.T) {
	findings, err := Lint("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repository violates the determinism lint: %s", f)
	}
}

// TestAllowlistScoping checks the two allowlist shapes: a single-file
// entry covers exactly that file, and a directory entry covers the
// whole subtree.
func TestAllowlistScoping(t *testing.T) {
	cases := []struct {
		rel, rule string
		want      bool
	}{
		{"internal/service/service.go", "time-now", true},
		{"internal/service/bad.go", "time-now", false},
		{"internal/service/service.go", "math-rand", false},
		{"internal/gen/gen.go", "math-rand", true},
		{"internal/gen/sub/x.go", "math-rand", true},
		{"internal/gently/x.go", "math-rand", false}, // prefix must be path-segment exact
		{"cmd/loadbench/main.go", "time-now", false},
	}
	for _, c := range cases {
		if got := ruleAllowed(c.rel, c.rule); got != c.want {
			t.Errorf("ruleAllowed(%q, %q) = %v, want %v", c.rel, c.rule, got, c.want)
		}
	}
}
