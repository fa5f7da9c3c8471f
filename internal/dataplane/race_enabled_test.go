//go:build race

package dataplane

// raceEnabled reports that this test binary runs under the race
// detector, whose shadow memory distorts heap readings.
const raceEnabled = true
