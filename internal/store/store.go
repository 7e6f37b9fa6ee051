// Package store is the crash-safe persistent result store behind the
// serving layer: a content-addressed map from analysis identity —
// program fingerprint, operation, parameters and analysis version — to
// the byte-deterministic response document computed for it. Because
// responses are a pure function of that identity (the service layer's
// byte-determinism guarantee), a record read back from the store is
// exactly the document a cold compute would produce, which is what makes
// cross-restart cache hits sound: a lost-then-recomputed entry and a
// persisted one are indistinguishable.
//
// Durability model (the filesystem backend, FS):
//
//   - every record is framed with a magic, explicit lengths and a CRC of
//     the key and payload, so a torn or partial write is detectable, not
//     silently servable;
//   - writes go through a temp file, fsync, atomic rename and a
//     directory sync, so a record either exists completely or not at all
//     under crash;
//   - a startup recovery scan validates every record; corrupt entries
//     are quarantined — moved aside and reported, never served and never
//     silently deleted — and abandoned temp files are swept;
//   - the analysis version is part of the key, so a new analysis release
//     simply misses old records instead of serving stale semantics.
//
// FaultFS wraps the backend's file operations with injectable faults
// (short/torn writes, ENOSPC, rename failures, read corruption,
// mid-write crash points) so the chaos tests can prove the properties
// above instead of asserting them.
package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"refidem/internal/ir"
)

// Typed store errors. Callers branch with errors.Is: ErrNotFound is the
// ordinary miss, ErrCorrupt means a record existed but failed validation
// (it has been quarantined), anything else is a backend fault the serving
// layer treats as a degrade signal.
var (
	// ErrNotFound reports that no record exists for the key.
	ErrNotFound = errors.New("store: record not found")
	// ErrCorrupt reports that the record's frame failed validation
	// (bad magic, truncated, checksum mismatch, key mismatch). The
	// backend quarantines the record before returning this.
	ErrCorrupt = errors.New("store: record corrupt")
	// ErrBadKey reports a key whose fields cannot be encoded (embedded
	// newlines).
	ErrBadKey = errors.New("store: invalid key")
)

// Key is the content address of one persisted result: the program's
// content fingerprint plus everything else that shapes the response
// bytes. Two requests with equal keys are answered with byte-identical
// documents, so persisting under this key is exact.
type Key struct {
	// Fingerprint is the program content hash (ir.FingerprintOf).
	Fingerprint ir.Fingerprint
	// Op is the operation that produced the record ("label", "simulate").
	Op string
	// Params is the canonical parameter encoding chosen by the caller;
	// it is opaque to the store but part of the address.
	Params string
	// Version is the analysis version that computed the record. Bumping
	// it invalidates every prior record by address, not by deletion.
	Version string
}

// Encode renders the key's canonical byte form — the form hashed into
// the record's filename and embedded in the record frame, so a record
// self-describes its address.
func (k Key) Encode() []byte {
	var b strings.Builder
	b.Grow(len(k.Version) + len(k.Op) + len(k.Params) + 2*len(k.Fingerprint) + 32)
	b.WriteString("version=")
	b.WriteString(k.Version)
	b.WriteString("\nop=")
	b.WriteString(k.Op)
	b.WriteString("\nfp=")
	b.WriteString(hex.EncodeToString(k.Fingerprint[:]))
	b.WriteString("\nparams=")
	b.WriteString(k.Params)
	b.WriteString("\n")
	return []byte(b.String())
}

// validate rejects keys whose encoding would be ambiguous.
func (k Key) validate() error {
	for _, f := range []struct{ name, v string }{
		{"version", k.Version}, {"op", k.Op}, {"params", k.Params},
	} {
		if strings.ContainsRune(f.v, '\n') {
			return fmt.Errorf("%w: %s contains a newline", ErrBadKey, f.name)
		}
	}
	if k.Op == "" {
		return fmt.Errorf("%w: empty op", ErrBadKey)
	}
	return nil
}

// DecodeKey parses a canonical key encoding (the inverse of Encode).
func DecodeKey(b []byte) (Key, error) {
	var k Key
	rest := string(b)
	for _, field := range []string{"version", "op", "fp", "params"} {
		line, tail, ok := strings.Cut(rest, "\n")
		if !ok {
			return Key{}, fmt.Errorf("%w: truncated key encoding", ErrCorrupt)
		}
		val, found := strings.CutPrefix(line, field+"=")
		if !found {
			return Key{}, fmt.Errorf("%w: key line %q is not %s=", ErrCorrupt, line, field)
		}
		switch field {
		case "version":
			k.Version = val
		case "op":
			k.Op = val
		case "fp":
			raw, err := hex.DecodeString(val)
			if err != nil || len(raw) != len(k.Fingerprint) {
				return Key{}, fmt.Errorf("%w: bad fingerprint %q", ErrCorrupt, val)
			}
			copy(k.Fingerprint[:], raw)
		case "params":
			k.Params = val
		}
		rest = tail
	}
	if rest != "" {
		return Key{}, fmt.Errorf("%w: trailing bytes after key encoding", ErrCorrupt)
	}
	return k, nil
}

// Backend is a pluggable persistent result store; the filesystem
// implementation is FS. A server reads it one record at a time: Get is
// its only read path. Implementations must be safe for concurrent use.
type Backend interface {
	// Get returns the record's payload, ErrNotFound on a miss, or
	// ErrCorrupt after quarantining a record that failed validation.
	Get(k Key) ([]byte, error)
	// Put durably persists the payload under the key, replacing any
	// previous record atomically.
	Put(k Key, data []byte) error
	// Probe performs a small write-then-read self check; the serving
	// layer uses it to decide when a degraded store has recovered.
	Probe() error
	// Quarantined reports the total number of records quarantined since
	// the backend was opened (recovery scan plus runtime detections).
	Quarantined() int64
}

// RecoveryStats reports what the startup recovery scan found.
type RecoveryStats struct {
	// Scanned counts record files examined.
	Scanned int
	// Valid counts records that passed frame validation.
	Valid int
	// Quarantined counts corrupt records moved to the quarantine
	// directory (never served, never silently deleted).
	Quarantined int
	// TempsSwept counts abandoned temp files (crashed mid-write, never
	// renamed into place — by construction invisible to readers) removed.
	TempsSwept int
}

func (s RecoveryStats) String() string {
	return fmt.Sprintf("scanned %d records: %d valid, %d quarantined, %d temp files swept",
		s.Scanned, s.Valid, s.Quarantined, s.TempsSwept)
}
