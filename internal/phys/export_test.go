package phys

import "fmt"

// audit checks the buffer ledger of m. Each buffer's share count equals
// the number of frames holding it; a freed frame holds none; a pooled
// buffer has count 0, no holder, its pool's size and one place in the
// pool. And the buffers, live or pooled, never outnumber the frames ever
// allocated: the host footprint stays at or below an eager copy's.
func (m *Memory) audit() error {
	holders := make(map[*buffer]int)
	for _, f := range m.frames[NoFrame+1:] {
		if f.buf == nil {
			continue
		}
		if f.freed {
			return fmt.Errorf("freed %v still holds a buffer", f)
		}
		if int64(len(f.buf.b)) != f.Size {
			return fmt.Errorf("%v holds a %d-byte buffer", f, len(f.buf.b))
		}
		holders[f.buf]++
	}
	for b, n := range holders {
		if b.shares != n {
			return fmt.Errorf("buffer %p: share count %d, held by %d frames", b, b.shares, n)
		}
	}
	pooled := make(map[*buffer]bool)
	for size, l := range m.pool {
		for _, b := range l {
			switch {
			case b.shares != 0:
				return fmt.Errorf("pooled buffer %p has share count %d", b, b.shares)
			case holders[b] != 0:
				return fmt.Errorf("pooled buffer %p is held by %d frames", b, holders[b])
			case int64(len(b.b)) != size:
				return fmt.Errorf("pooled buffer %p of %d bytes on the %d-byte list", b, len(b.b), size)
			case pooled[b]:
				return fmt.Errorf("buffer %p pooled twice", b)
			}
			pooled[b] = true
		}
	}
	if buffers, frames := len(holders)+len(pooled), len(m.frames)-1; buffers > frames {
		return fmt.Errorf("%d live + %d pooled buffers for %d frames ever allocated",
			len(holders), len(pooled), frames)
	}
	return nil
}

// pooled is how many buffers of size bytes sit in m's pool.
func (m *Memory) pooled(size int64) int { return len(m.pool[size]) }
