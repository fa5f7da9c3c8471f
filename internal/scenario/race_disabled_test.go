//go:build !race

package scenario

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
