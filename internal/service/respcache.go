package service

import "refidem/internal/ir"

// respEntry is one response-cache entry, keyed by api.KeyOf: the shared,
// immutable response bytes and the program fingerprint they answer, kept
// so a label hit can restore its delta base (reregisterBase).
type respEntry struct {
	resp []byte
	fp   ir.Fingerprint
}
