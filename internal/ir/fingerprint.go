package ir

import (
	"crypto/sha256"
	"strconv"
)

// Fingerprint is a content hash of a program: two programs with equal
// fingerprints are structurally identical (same variables, regions,
// segments, statements, annotations) even when built as distinct object
// graphs. It keys caches that memoize per-program analysis results — the
// execution-fingerprint idiom — so sweeps that rebuild the same program
// per point can share one labeling.
type Fingerprint [sha256.Size]byte

// FingerprintOf computes the content fingerprint (see Canonical).
func FingerprintOf(p *Program) Fingerprint {
	_, fp := Canonical(p)
	return fp
}

// Canonical returns the program's canonical mini-language rendering
// (Format) together with its fingerprint, the hash of exactly that text.
// Format round-trips through the parser (property-tested), which makes it
// a faithful serialization of everything the analyses see. Callers that
// keep the text as well, such as the service's delta-base registry, use
// this to format a program once.
func Canonical(p *Program) (string, Fingerprint) {
	bp := getTextBuf()
	b := p.appendText((*bp)[:0])
	src, fp := string(b), sha256.Sum256(b)
	putTextBuf(bp, b)
	return src, fp
}

// RegionFingerprintOf computes the analysis fingerprint of one region of
// p: a hash over every program-level input the region's labeling depends
// on —
//
//   - the region's canonical rendering (structure, annotations, early
//     exits, the statements of every segment);
//   - the procedure table (calls inline procedure bodies into the
//     region's reference stream, so a procedure edit must change the
//     fingerprint of every region calling it);
//   - the declared dimensions of every variable the region references,
//     in region-local (first-use) order;
//   - the region's live-out bit for each of those variables, supplied by
//     liveOut (nil means no variable is live out).
//
// The labeling pipeline (dataflow attributes, dependence analysis, RFW,
// Algorithm 2) reads nothing else about the enclosing program, so two
// regions with equal fingerprints — even in different programs — label
// identically. The service's delta re-labeling path keys its per-region
// result cache on this.
func RegionFingerprintOf(p *Program, r *Region, liveOut func(*Var) bool) Fingerprint {
	bp := getTextBuf()
	b := appendProcs((*bp)[:0], p.Procs)
	b = r.appendText(b)
	for _, v := range r.DenseIndex().Vars {
		b = append(b, "var "...)
		b = append(b, v.Name...)
		for _, d := range v.Dims {
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(d), 10)
			b = append(b, ']')
		}
		if liveOut != nil && liveOut(v) {
			b = append(b, " live"...)
		}
		b = append(b, '\n')
	}
	fp := sha256.Sum256(b)
	putTextBuf(bp, b)
	return fp
}
