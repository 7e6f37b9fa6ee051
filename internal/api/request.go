package api

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Validate is the one structural check of a request, run by the service
// before its response-cache lookup and by the router before its own. Both
// caches key on one program selector (KeyOf), so a malformed request
// (several selectors set, or bad parameters) could otherwise collide with
// a cached valid request and be accepted or rejected depending on cache
// warmth.
func Validate(req Request) error {
	if req.Op != OpLabel && req.Op != OpSimulate {
		return fmt.Errorf("%w: unknown op %q (want %q or %q)", ErrBadRequest, req.Op, OpLabel, OpSimulate)
	}
	selectors := 0
	for _, set := range []bool{req.Program != "", req.Example != "", req.Base != ""} {
		if set {
			selectors++
		}
	}
	if selectors > 1 {
		return fmt.Errorf("%w: use exactly one of program, example or base, not both or all three", ErrBadRequest)
	}
	if len(req.Patches) > 0 && req.Base == "" {
		return fmt.Errorf("%w: patches require a base fingerprint", ErrBadRequest)
	}
	if req.Procs < 0 || req.Capacity < 0 {
		return fmt.Errorf("%w: procs and capacity must be non-negative", ErrBadRequest)
	}
	if req.Procs > MaxProcs {
		return fmt.Errorf("%w: procs must be at most %d", ErrBadRequest, MaxProcs)
	}
	return nil
}

// Key identifies a cacheable response: the operation, a content hash of
// the request's program text (or example name, or delta selector) and
// every parameter that shapes the response document. Responses are
// byte-deterministic, so two valid requests with equal keys are answered
// with byte-identical documents and caching the bytes is exact.
type Key struct {
	op       string
	src      [sha256.Size]byte
	deps     bool
	procs    int
	capacity int
}

// KeyOf hashes the request's program selector. It is computed before
// parsing, so a cache hit skips the parser entirely; requests whose source
// text differs only in formatting miss here and are caught by the
// service's post-parse, fingerprint-keyed tiers instead. The
// []byte(prefix + text) form compiles to a single fused allocation —
// measurably cheaper than separate io.WriteString calls, and the allocs/op
// gate on BenchmarkServiceLabelSerial holds it there.
func KeyOf(req Request) Key {
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
	k := Key{op: req.Op, deps: req.Deps, procs: req.Procs, capacity: req.Capacity}
	h.Sum(k.src[:0])
	return k
}

// Selector returns the key's selector digest: the domain-prefixed hash of
// the program text, example name or delta selector alone, without the
// operation or any parameter. Two valid requests with equal selectors name
// the same program, which is how the service finds a program it has
// already parsed without parsing it again.
func (k Key) Selector() [sha256.Size]byte { return k.src }
