// Fixture: the exported-surface check. A program calls Used and takes
// a Namer; Name satisfies it, so it is in use through the interface.
// Oracle is allowlisted. Unused is the one finding.
package lib

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
