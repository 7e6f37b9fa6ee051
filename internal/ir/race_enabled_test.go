//go:build race

package ir_test

// raceEnabled gates allocation-count assertions: sync.Pool sheds items
// nondeterministically under the race detector, so steady-state counts
// are only stable without it.
const raceEnabled = true
