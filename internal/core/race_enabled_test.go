//go:build race

package core_test

// raceEnabled reports that this test binary runs under the race
// detector, where allocation counts are meaningless (the runtime
// instruments allocations and sync.Pool drops Puts at random).
const raceEnabled = true
