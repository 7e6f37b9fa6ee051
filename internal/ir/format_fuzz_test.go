package ir_test

import (
	"os"
	"path/filepath"
	"testing"

	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/workloads"
)

// FuzzFormatRoundTrip feeds arbitrary source text to the parser, the
// service's first untrusted decoder. No input may panic it. A program it
// accepts must print exactly as the oracle printer does, and its text
// must re-parse to a program with the same text and fingerprint.
//
//	go test ./internal/ir -run '^$' -fuzz FuzzFormatRoundTrip -fuzztime 30s
func FuzzFormatRoundTrip(f *testing.F) {
	paths, err := filepath.Glob(corpusGlob)
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus programs under %s (err %v)", corpusGlob, err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, name := range []string{"fig1", "fig2", "fig3", "buts"} {
		p, err := workloads.Example(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.Format())
	}
	// Non-ASCII bytes where an identifier may start.
	f.Add("program \xe9")
	f.Add("program p\nvar b\nregion r loop i = 0 to 1 {\n  private \xe9, b\n  b = 1\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := lang.Parse(src)
		if err != nil {
			return
		}
		text, fp := ir.Canonical(p)
		if want := ir.OracleFormat(p); text != want {
			t.Fatalf("Format differs from the oracle:\n--- got\n%s--- want\n%s", text, want)
		}
		q, err := lang.Parse(text)
		if err != nil {
			t.Fatalf("formatted text does not parse: %v\n%s", err, text)
		}
		if again, qfp := ir.Canonical(q); again != text || qfp != fp {
			t.Fatalf("round trip changed the program:\n--- first\n%s--- second\n%s", text, again)
		}
	})
}
