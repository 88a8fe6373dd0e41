package dma

// Test-only access to the descriptor table: no program calls it.

// FirstSlot returns the first PaRAM slot of the transfer's chain.
func (t *Transfer) FirstSlot() int { return t.first }

// Slot returns a copy of PaRAM entry i.
func (e *Engine) Slot(i int) Desc { return e.params[i] }
