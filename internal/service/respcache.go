package service

import (
	"crypto/sha256"
	"encoding/binary"

	"refidem/internal/ir"
)

// respKey identifies a cacheable response: the operation, a content hash
// of the request's program text (or example name) and every parameter
// that shapes the response document. Two requests with equal keys are
// answered with byte-identical documents, so caching the bytes is exact.
type respKey struct {
	op       string
	src      [sha256.Size]byte
	deps     bool
	procs    int
	capacity int
}

// respKeyOf hashes the request's program selector. It is computed before
// parsing, so a response-cache hit skips the parser entirely; requests
// whose source text differs only in formatting miss here and are caught
// by the (post-parse, fingerprint-keyed) tiers behind the queue instead. The
// []byte(prefix + text) form compiles to a single fused allocation —
// measurably cheaper than separate io.WriteString calls, and the
// allocs/op gate on BenchmarkServiceLabelSerial holds it there.
func respKeyOf(req Request) respKey {
	h := sha256.New()
	switch {
	case req.Example != "":
		h.Write([]byte("example:" + req.Example))
	case req.Base != "":
		// Delta selector: the base fingerprint plus every patch,
		// length-prefixed so adjacent fields cannot alias across requests.
		h.Write([]byte("base:" + req.Base))
		var lenbuf [8]byte
		for _, p := range req.Patches {
			binary.BigEndian.PutUint64(lenbuf[:], uint64(len(p.Region)))
			h.Write(lenbuf[:])
			h.Write([]byte(p.Region))
			binary.BigEndian.PutUint64(lenbuf[:], uint64(len(p.Source)))
			h.Write(lenbuf[:])
			h.Write([]byte(p.Source))
		}
	default:
		h.Write([]byte("src:" + req.Program))
	}
	k := respKey{op: req.Op, deps: req.Deps, procs: req.Procs, capacity: req.Capacity}
	h.Sum(k.src[:0])
	return k
}

// respEntry is one response-cache entry: the shared, immutable response
// bytes and the program fingerprint they answer, kept so a label hit can
// restore its delta base (reregisterBase).
type respEntry struct {
	resp []byte
	fp   ir.Fingerprint
}
