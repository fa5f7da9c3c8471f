//go:build !race

package core_test

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
