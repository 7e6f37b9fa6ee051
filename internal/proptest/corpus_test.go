package proptest

// Corpus replay: every file under testdata/corpus is re-run through the
// fuzzer's full differential oracle wall. The directory holds the seed
// corpus (hand-minimized feature-covering programs) plus any minimized
// reproducer the fuzzing driver ever wrote there (cmd/fuzz -corpus
// internal/proptest/testdata/corpus), so every past failure stays a
// permanent regression test.

import (
	"path/filepath"
	"testing"

	"refidem/internal/deps"
	"refidem/internal/engine"
	"refidem/internal/fuzz"
	"refidem/internal/idem"
)

func TestCorpusReplay(t *testing.T) {
	corpus, err := fuzz.LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("testdata/corpus is empty — the seed corpus should be checked in")
	}
	for _, r := range corpus {
		r := r
		t.Run(filepath.Base(r.Path), func(t *testing.T) {
			p, err := r.Program()
			if err != nil {
				t.Fatal(err)
			}
			if v := fuzz.CheckProgram(p, fuzz.OracleOptions{}); v != nil {
				t.Fatalf("corpus program fails the oracle wall: %v\n(metadata: seed=%d profile=%s kind=%s detail=%s)",
					v, r.Seed, r.Profile, r.Kind, r.Detail)
			}
		})
	}
}

// TestCorpusEnsembleIdentity replays the whole corpus through the
// collaborative dependence ensemble with every member enabled — the
// replay-profile member trained on each program's own run — and checks
// the threshold-1.0 contract: base labels are byte-for-byte those of the
// plain labeler (speculative members only annotate confidences), and a
// reference reaches P(idempotent) == 1 exactly when it is proved
// idempotent. Any past fuzz reproducer checked into the corpus is thereby
// also a permanent ensemble regression test.
func TestCorpusEnsembleIdentity(t *testing.T) {
	corpus, err := fuzz.LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range corpus {
		r := r
		t.Run(filepath.Base(r.Path), func(t *testing.T) {
			p, err := r.Program()
			if err != nil {
				t.Fatal(err)
			}
			prof, err := engine.CollectProfile(p, engine.DefaultConfig())
			if err != nil {
				t.Fatalf("collecting replay profile: %v", err)
			}
			ens := deps.Ensemble{Range: true, MustWriteFirst: true, Profile: prof}
			base := idem.LabelProgram(p)
			got := idem.LabelProgramEnsemble(p, ens)
			for _, reg := range p.Regions {
				b, g := base[reg], got[reg]
				for _, ref := range reg.Refs {
					if g.Label(ref) != b.Label(ref) {
						t.Errorf("%s %v: ensemble label %v != plain label %v",
							reg.Name, ref, g.Label(ref), b.Label(ref))
					}
					pr := g.Prob(ref)
					if pr < 0 || pr > 1 {
						t.Errorf("%s %v: P(idempotent) = %v out of range", reg.Name, ref, pr)
					}
					if (pr == 1) != (g.Label(ref) == idem.Idempotent) {
						t.Errorf("%s %v: P == 1 must hold exactly for proved-idempotent refs (P=%v, label %v)",
							reg.Name, ref, pr, g.Label(ref))
					}
				}
			}
		})
	}
}
