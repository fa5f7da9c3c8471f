// Fixture: the exported-surface check. A program calls Used and takes
// a Namer; Name satisfies it, so it is in use through the interface.
// Oracle is allowlisted. Unused is the one finding among the funcs.
//
// Of Config's fields the program writes Set, copies Unwritten (which
// nothing else writes) into Copied and into itself, and counts through
// Count's method; Tagged is decoded from JSON and Allowed is
// allowlisted. Unwritten and Copied are the two findings among the
// fields.
package lib

import "sync/atomic"

// A Namer names itself.
type Namer interface{ Name() string }

// Thing is referenced by the program.
type Thing struct{}

// Name satisfies Namer.
func (Thing) Name() string { return "thing" }

// Used is called by the program.
func Used() Thing { return Thing{} }

// Unused is called by nothing but itself.
func Unused(n int) int {
	if n > 0 {
		return Unused(n - 1)
	}
	return 0
}

// Oracle is allowlisted.
func Oracle() int { return 1 }

// Config is the fixture's struct of settings.
type Config struct {
	Set       int
	Unwritten int
	Copied    int
	Tagged    int `json:"tagged"`
	Count     atomic.Uint64
	Allowed   int
}

// Sum reads every field, so only writes decide a finding.
func (c *Config) Sum() uint64 {
	return uint64(c.Set+c.Unwritten+c.Copied+c.Tagged+c.Allowed) + c.Count.Load()
}
