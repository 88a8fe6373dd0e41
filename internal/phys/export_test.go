package phys

import (
	"fmt"

	"memif/internal/hw"
)

// audit checks the buffer ledger of m. Each buffer's share count equals
// the number of frames holding it; a freed frame holds none; a pooled
// buffer has count 0, no holder, its pool's size and one place in the
// pool. Every buffer's capacity is its length, so no append to one
// frame's bytes reaches its neighbour's in the slab. The buffers, live or
// pooled, never outnumber the frames ever allocated, and no size's
// uncarved slab rest outnumbers the buffers carved from it: the host
// footprint stays at or below twice an eager copy's.
func (m *Memory) audit() error {
	holders := make(map[*buffer]int)
	for _, f := range m.frames[NoFrame+1:] {
		if f.buf == nil {
			continue
		}
		if f.freed {
			return fmt.Errorf("freed %v still holds a buffer", f)
		}
		if int64(len(f.buf.b)) != f.Size || cap(f.buf.b) != len(f.buf.b) {
			return fmt.Errorf("%v holds a %d-byte buffer of capacity %d", f, len(f.buf.b), cap(f.buf.b))
		}
		holders[f.buf]++
	}
	for b, n := range holders {
		if b.shares != n {
			return fmt.Errorf("buffer %p: share count %d, held by %d frames", b, b.shares, n)
		}
	}
	pooled := make(map[*buffer]bool)
	for size, bs := range m.bufs {
		for _, b := range bs.pool {
			switch {
			case b.shares != 0:
				return fmt.Errorf("pooled buffer %p has share count %d", b, b.shares)
			case holders[b] != 0:
				return fmt.Errorf("pooled buffer %p is held by %d frames", b, holders[b])
			case int64(len(b.b)) != size || cap(b.b) != len(b.b):
				return fmt.Errorf("pooled buffer %p of %d bytes, capacity %d, on the %d-byte list",
					b, len(b.b), cap(b.b), size)
			case pooled[b]:
				return fmt.Errorf("buffer %p pooled twice", b)
			}
			pooled[b] = true
		}
		if spare := int64(len(bs.spare)); spare > bs.carved {
			return fmt.Errorf("%d-byte slab keeps %d buffers in reserve, %d carved", size, spare, bs.carved)
		}
	}
	if buffers, frames := len(holders)+len(pooled), len(m.frames)-1; buffers > frames {
		return fmt.Errorf("%d live + %d pooled buffers for %d frames ever allocated",
			len(holders), len(pooled), frames)
	}
	return nil
}

// pooled is how many buffers of size bytes sit in m's pool.
func (m *Memory) pooled(size int64) int { return len(m.bufs[size].pool) }

// NodeStats returns a snapshot of node id's allocation counters.
func (m *Memory) NodeStats(id hw.NodeID) Stats {
	st := m.nodes[id]
	s := st.stats
	s.Used = st.used
	return s
}
