package pagetable

// Test-only accessors: no program calls them.

// Flags extracts the flag bits.
func (p PTE) Flags() PTE { return p & flagMask }

// Leaves reports the number of leaf tables allocated.
func (t *Table) Leaves() int { return t.leaves }
