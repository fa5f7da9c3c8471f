//go:build !race

package aitf

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
