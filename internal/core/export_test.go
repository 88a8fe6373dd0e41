package core

// Test-only helpers: no program calls them.

// String names a race mode; the race-mode subtests are named by it.
func (m RaceMode) String() string {
	return [...]string{"detect", "recover", "prevent"}[m]
}
