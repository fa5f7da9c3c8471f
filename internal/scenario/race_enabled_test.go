//go:build race

package scenario

// raceEnabled reports that this test binary runs under the race
// detector, where allocation readings are meaningless (the runtime
// instruments allocations and sync.Pool drops Puts at random).
const raceEnabled = true
