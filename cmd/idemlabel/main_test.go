package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from current output")

// checkGolden compares got against the named golden file, rewriting it
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./cmd/idemlabel -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestExamplesGolden locks the table output of every built-in example, so
// Result-accessor changes cannot silently alter the tool.
func TestExamplesGolden(t *testing.T) {
	for _, tc := range []struct {
		golden   string
		example  string
		showDeps bool
		dot      string
	}{
		{"fig1.golden", "fig1", false, ""},
		{"fig2.golden", "fig2", true, ""},
		{"fig3.golden", "fig3", false, ""},
		{"buts.golden", "buts", true, ""},
		{"fig2_segments.dot.golden", "fig2", false, "segments"},
		{"fig3_deps.dot.golden", "fig3", false, "deps"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, tc.example, "", tc.showDeps, tc.dot); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.golden, buf.Bytes())
		})
	}
}

// TestRunStable asserts the tool output is identical across repeated runs
// (map iteration must never leak into the report).
func TestRunStable(t *testing.T) {
	var first bytes.Buffer
	if err := run(&first, "buts", "", true, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := run(&again, "buts", "", true, ""); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatal("output differs across runs")
		}
	}
}

// TestRunErrors covers the error paths main maps to exit code 1.
func TestRunErrors(t *testing.T) {
	// Nine inner loops fail validation instead of crashing the solver.
	var deep strings.Builder
	deep.WriteString("program deep\nvar a[4]\nregion main loop k = 0 to 1 {\n")
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&deep, "for j%d = 0 to 1 {\n", i)
	}
	deep.WriteString("a[j0] = a[j0] + 1\n" + strings.Repeat("}\n", 10))
	deepPath := filepath.Join(t.TempDir(), "deep.ril")
	if err := os.WriteFile(deepPath, []byte(deep.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		example, file string
		dot           string
	}{
		{"no input", "", "", ""},
		{"both inputs", "fig1", "x.ril", ""},
		{"unknown example", "nope", "", ""},
		{"missing file", "", filepath.Join(t.TempDir(), "missing.ril"), ""},
		{"bad dot kind", "fig2", "", "nope"},
		{"nest too deep", "", deepPath, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, tc.example, tc.file, false, tc.dot); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestRunFile drives the -file path end to end through the parser.
func TestRunFile(t *testing.T) {
	src := `program filetest
var a[16]
var b[16]
region main loop k = 0 to 15 {
  a[k] = b[k] + 1
}
`
	path := filepath.Join(t.TempDir(), "prog.ril")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, "", path, false, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("program filetest")) {
		t.Errorf("unexpected output:\n%s", buf.String())
	}
}

// TestCallsGolden locks the interprocedural output: the procedure
// summary table plus the labeling of a region whose references all come
// from call expansion.
func TestCallsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "", filepath.Join("testdata", "calls.ril"), true, ""); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "calls.golden", buf.Bytes())
}
