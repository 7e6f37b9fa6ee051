//go:build !race

package service

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
