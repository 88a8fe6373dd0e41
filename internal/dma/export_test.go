package dma

// Test-only access to the descriptor table: no program calls it.

// FirstSlot returns the first PaRAM slot of the transfer's chain.
func (t *Transfer) FirstSlot() int { return t.first }

// Slot returns a copy of PaRAM entry i.
func (e *Engine) Slot(i int) Desc { return e.params[i] }

// RecycleEarly recycles t without Recycle's check that it has finished:
// the use-after-recycle that transfer generations exist to catch.
func (e *Engine) RecycleEarly(t *Transfer) { e.recycle(t) }
