package bench

// Test-only helpers: no program calls them.

// Helps reports whether the optimization improved its metric.
func (a AblationResult) Helps() bool {
	if a.HigherIsBetter {
		return a.On > a.Off
	}
	return a.On < a.Off
}
