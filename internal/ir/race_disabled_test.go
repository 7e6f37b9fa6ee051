//go:build !race

package ir_test

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
