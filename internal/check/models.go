package check

import (
	"fmt"
	"sort"
	"strings"

	"memif/internal/rbq"
)

// ---------------------------------------------------------------------
// Red-blue queue: sequential spec of rbq.Queue.
//
// State: a FIFO of values, each with the color its link carries, plus
// the queue color. SetColor only succeeds on an empty queue (Section
// 4.3), so only Stage changes the color of a non-empty queue: it links
// its value red. Enqueue links its value with the queue color, and
// Dequeue observes the color of the value it takes.
// ---------------------------------------------------------------------

// QOpKind selects the queue operation of a QOp.
type QOpKind uint8

// Queue operations.
const (
	QEnqueue QOpKind = iota
	QDequeue
	QSetColor
	QStage
)

// QOp is the input of one rbq.Queue operation.
type QOp struct {
	Kind QOpKind
	V    uint32    // QEnqueue, QStage: value
	C    rbq.Color // QSetColor: new color
}

// QRes is the output of one rbq.Queue operation.
type QRes struct {
	V    uint32    // QDequeue: value
	C    rbq.Color // observed / previous color
	Kick bool      // QStage: the stage turned the queue from blue to red
	Ok   bool
}

func (o QOp) String() string {
	switch o.Kind {
	case QEnqueue:
		return fmt.Sprintf("enqueue(%d)", o.V)
	case QStage:
		return fmt.Sprintf("stage(%d)", o.V)
	case QDequeue:
		return "dequeue()"
	default:
		return fmt.Sprintf("setcolor(%v)", o.C)
	}
}

func (r QRes) String() string {
	return fmt.Sprintf("(v=%d c=%v kick=%v ok=%v)", r.V, r.C, r.Kick, r.Ok)
}

type queueState struct {
	items string // comma-joined value:color pairs, FIFO order
	color rbq.Color
}

// push appends v linked with color c and leaves the queue color c.
func (s queueState) push(v uint32, c rbq.Color) queueState {
	item := fmt.Sprintf("%d:%d", v, c)
	if s.items == "" {
		return queueState{item, c}
	}
	return queueState{s.items + "," + item, c}
}

func (s queueState) front() (uint32, rbq.Color, queueState, bool) {
	if s.items == "" {
		return 0, 0, s, false
	}
	head := s.items
	rest := ""
	if i := strings.IndexByte(s.items, ','); i >= 0 {
		head, rest = s.items[:i], s.items[i+1:]
	}
	var v uint32
	var c rbq.Color
	fmt.Sscanf(head, "%d:%d", &v, &c)
	return v, c, queueState{rest, s.color}, true
}

// QueueModel returns the sequential specification of a red-blue queue
// with the given initial color. A failed Enqueue (slab exhaustion) is
// accepted as a no-op; every other output is checked exactly.
func QueueModel(initial rbq.Color) Model {
	return Model{
		Name: "red-blue queue",
		Init: func() any { return queueState{color: initial} },
		Step: func(state, input, output any) (bool, any) {
			st := state.(queueState)
			op := input.(QOp)
			out := output.(QRes)
			switch op.Kind {
			case QEnqueue:
				if !out.Ok {
					return true, st // slab exhausted: legal no-op at any point
				}
				if out.C != st.color {
					return false, nil
				}
				return true, st.push(op.V, st.color)
			case QStage:
				if !out.Ok {
					return true, st // slab exhausted, as for QEnqueue
				}
				if out.Kick != (st.color == rbq.Blue) {
					return false, nil
				}
				return true, st.push(op.V, rbq.Red)
			case QDequeue:
				v, c, rest, nonEmpty := st.front()
				if !out.Ok {
					// Empty dequeue reports the current color.
					return !nonEmpty && out.C == st.color, st
				}
				if !nonEmpty || v != out.V || out.C != c {
					return false, nil
				}
				return true, rest
			case QSetColor:
				_, _, _, nonEmpty := st.front()
				if !out.Ok {
					return nonEmpty, st // fails exactly when non-empty
				}
				if nonEmpty || out.C != st.color {
					return false, nil
				}
				return true, queueState{st.items, op.C}
			}
			return false, nil
		},
		Describe: func(input, output any) string {
			return fmt.Sprintf("%v -> %v", input, output)
		},
	}
}

// ---------------------------------------------------------------------
// Treiber free stack: sequential spec of the slab's internal free list
// (rbq.Slab.AllocNode / ReleaseNode). A linearizable Treiber stack is a
// sequential LIFO; the spec additionally rejects double-free.
// ---------------------------------------------------------------------

// SOp is the input of one free-stack operation.
type SOp struct {
	Push bool
	Idx  uint32 // Push: the released node
}

// SRes is the output of one free-stack operation.
type SRes struct {
	Idx uint32 // pop: the allocated node
	Ok  bool
}

func (o SOp) String() string {
	if o.Push {
		return fmt.Sprintf("release(%d)", o.Idx)
	}
	return "alloc()"
}

// StackModel returns the sequential LIFO specification of the slab free
// stack, initialized with the given nodes (bottom to top).
func StackModel(initial []uint32) Model {
	enc := func(items []uint32) string {
		var b strings.Builder
		for i, v := range items {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		return b.String()
	}
	return Model{
		Name: "treiber free stack",
		Init: func() any { return enc(initial) },
		Step: func(state, input, output any) (bool, any) {
			st := state.(string)
			op := input.(SOp)
			if op.Push {
				// Double-free: the node must not already be on the stack.
				needle := fmt.Sprintf("%d", op.Idx)
				for _, part := range strings.Split(st, ",") {
					if part == needle {
						return false, nil
					}
				}
				if st == "" {
					return true, needle
				}
				return true, st + "," + needle
			}
			out := output.(SRes)
			if st == "" {
				return !out.Ok, st
			}
			top := st
			rest := ""
			if i := strings.LastIndexByte(st, ','); i >= 0 {
				rest, top = st[:i], st[i+1:]
			}
			if !out.Ok || top != fmt.Sprintf("%d", out.Idx) {
				return false, nil
			}
			return true, rest
		},
	}
}

// ---------------------------------------------------------------------
// uapi.Area ownership protocol: the five queues of an interface area
// plus the "user-held" state. Every request index is in exactly one
// place at every linearization point; queue contents are FIFO; an index
// can only be enqueued by its current holder and only leaves a queue
// through a dequeue that hands it to the dequeuer.
// ---------------------------------------------------------------------

// AreaQueue names one of the five queues of a uapi.Area.
type AreaQueue uint8

// The queues of an interface area.
const (
	AQFree AreaQueue = iota
	AQStaging
	AQSubmission
	AQCompOK
	AQCompFail
	aqCount
)

func (q AreaQueue) String() string {
	return [...]string{"free", "staging", "submission", "comp-ok", "comp-fail"}[q]
}

// AOp is the input of one Area-level queue operation.
type AOp struct {
	Queue AreaQueue
	Enq   bool
	Idx   uint32 // Enq: the index being enqueued
}

// ARes is the output of one Area-level queue operation.
type ARes struct {
	Idx uint32 // Deq: the index dequeued
	Ok  bool
}

func (o AOp) String() string {
	if o.Enq {
		return fmt.Sprintf("%v.enqueue(%d)", o.Queue, o.Idx)
	}
	return fmt.Sprintf("%v.dequeue()", o.Queue)
}

type areaState struct {
	queues [aqCount]string // FIFO per queue, comma-joined
	held   string          // sorted comma-joined user-held indices
}

func (s areaState) key() string {
	return strings.Join(s.queues[:], "|") + "#" + s.held
}

func splitIdx(s string) []uint32 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]uint32, len(parts))
	for i, p := range parts {
		fmt.Sscanf(p, "%d", &out[i])
	}
	return out
}

func joinIdx(v []uint32) string {
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	return b.String()
}

// AreaModel returns the ownership specification of a uapi.Area whose
// free list initially holds indices 0..nReqs-1 (the NewArea state). The
// other queues start empty and nothing is user-held.
func AreaModel(nReqs int) Model {
	return Model{
		Name: "uapi area ownership",
		Init: func() any {
			init := make([]uint32, nReqs)
			for i := range init {
				init[i] = uint32(i)
			}
			var s areaState
			s.queues[AQFree] = joinIdx(init)
			return s.key()
		},
		Step: func(state, input, output any) (bool, any) {
			st := decodeArea(state.(string))
			op := input.(AOp)
			out := output.(ARes)
			if op.Enq {
				if !out.Ok {
					return true, state // slab exhausted: no-op
				}
				// Only the holder may enqueue, and into exactly one queue.
				held := splitIdx(st.held)
				pos := -1
				for i, h := range held {
					if h == op.Idx {
						pos = i
					}
				}
				if pos < 0 {
					return false, nil
				}
				held = append(held[:pos], held[pos+1:]...)
				st.held = joinIdx(held)
				q := splitIdx(st.queues[op.Queue])
				st.queues[op.Queue] = joinIdx(append(q, op.Idx))
				return true, st.key()
			}
			q := splitIdx(st.queues[op.Queue])
			if !out.Ok {
				return len(q) == 0, state
			}
			if len(q) == 0 || q[0] != out.Idx {
				return false, nil
			}
			st.queues[op.Queue] = joinIdx(q[1:])
			held := append(splitIdx(st.held), out.Idx)
			sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
			st.held = joinIdx(held)
			return true, st.key()
		},
	}
}

func decodeArea(key string) areaState {
	var s areaState
	hash := strings.LastIndexByte(key, '#')
	qpart := key[:hash]
	s.held = key[hash+1:]
	parts := strings.SplitN(qpart, "|", int(aqCount))
	copy(s.queues[:], parts)
	return s
}

// ---------------------------------------------------------------------
// Submission scheduler: sequential spec of the realtime device's
// per-class priority+aging submission discipline and its multi-tenant
// weighted-deficit-round-robin (DRR) refinement.
//
// State: per class, the set of tenants with buffered work in activation
// order, each a FIFO with a DRR deficit, plus a cursor; across classes,
// the aging credits. Pop is deterministic given the state, so the spec
// simply replays the discipline: an aged lower class is served first
// (one pop, credit reset), then classes in strict priority order; within
// a class the cursor's tenant is served, its deficit topped up by its
// weight once per visit and decremented per request, the cursor
// advancing when the quantum is spent and a tenant deactivating — with
// its unspent deficit forgotten — when its FIFO empties.
// ---------------------------------------------------------------------

// TOp is the input of one submission-scheduler operation: a push of
// value V for Tenant at priority Class, or a pop.
type TOp struct {
	Push   bool
	Class  int
	Tenant uint32
	V      uint32
}

// TRes is the output of one submission-scheduler operation. For a pop,
// V and Tenant identify the served request and Aged marks an
// out-of-priority-order pop granted by the aging credit. A push with
// Ok == false (slab exhaustion) is a legal no-op.
type TRes struct {
	V      uint32
	Tenant uint32
	Aged   bool
	Ok     bool
}

func (o TOp) String() string {
	if o.Push {
		return fmt.Sprintf("push(c%d t%d v%d)", o.Class, o.Tenant, o.V)
	}
	return "pop()"
}

func (r TRes) String() string {
	if !r.Ok {
		return "(!ok)"
	}
	return fmt.Sprintf("(v=%d t=%d aged=%v)", r.V, r.Tenant, r.Aged)
}

// subBucket is one tenant's FIFO inside one class of the model state.
type subBucket struct {
	tenant  uint32
	deficit int64
	fifo    []uint32
}

// subClass is one class: active tenants in visit order plus the cursor.
type subClass struct {
	cur     int
	tenants []subBucket
}

type subState struct {
	credits []int64
	classes []subClass
}

func (c *subClass) queued() int {
	n := 0
	for i := range c.tenants {
		n += len(c.tenants[i].fifo)
	}
	return n
}

func (c *subClass) push(tenant, v uint32) {
	for i := range c.tenants {
		if c.tenants[i].tenant == tenant {
			c.tenants[i].fifo = append(c.tenants[i].fifo, v)
			return
		}
	}
	c.tenants = append(c.tenants, subBucket{tenant: tenant, fifo: []uint32{v}})
}

// pop mirrors the implementation's drrClass.pop exactly.
func (c *subClass) pop(weightOf func(uint32) int64) (v, tenant uint32, ok bool) {
	if len(c.tenants) == 0 {
		return 0, 0, false
	}
	if c.cur >= len(c.tenants) {
		c.cur = 0
	}
	b := &c.tenants[c.cur]
	if b.deficit <= 0 {
		w := weightOf(b.tenant)
		if w < 1 {
			w = 1
		}
		b.deficit += w
	}
	v, tenant = b.fifo[0], b.tenant
	b.fifo = b.fifo[1:]
	b.deficit--
	if len(b.fifo) == 0 {
		c.tenants = append(c.tenants[:c.cur], c.tenants[c.cur+1:]...)
	} else if b.deficit <= 0 {
		c.cur++
	}
	return v, tenant, true
}

// pop mirrors the implementation's tenantSched.pop exactly.
func (st *subState) pop(aging int64, weightOf func(uint32) int64) (v, tenant uint32, aged, ok bool) {
	for c := 1; c < len(st.classes); c++ {
		if st.credits[c] < aging {
			continue
		}
		if v, t, ok := st.classes[c].pop(weightOf); ok {
			st.credits[c] = 0
			return v, t, true, true
		}
		st.credits[c] = 0
	}
	for c := range st.classes {
		v, t, ok := st.classes[c].pop(weightOf)
		if !ok {
			continue
		}
		for l := c + 1; l < len(st.classes); l++ {
			if st.classes[l].queued() > 0 {
				st.credits[l]++
			}
		}
		return v, t, false, true
	}
	return 0, 0, false, false
}

// encodeSub renders the state canonically: "cr0,3|cur0;1:2:5.6;2:0:7|cur1".
func encodeSub(st *subState) string {
	var b strings.Builder
	b.WriteString("cr")
	for i, cr := range st.credits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", cr)
	}
	for ci := range st.classes {
		c := &st.classes[ci]
		fmt.Fprintf(&b, "|cur%d", c.cur)
		for _, t := range c.tenants {
			fmt.Fprintf(&b, ";%d:%d:", t.tenant, t.deficit)
			for i, v := range t.fifo {
				if i > 0 {
					b.WriteByte('.')
				}
				fmt.Fprintf(&b, "%d", v)
			}
		}
	}
	return b.String()
}

func decodeSub(key string) *subState {
	parts := strings.Split(key, "|")
	st := &subState{classes: make([]subClass, len(parts)-1)}
	for _, p := range strings.Split(strings.TrimPrefix(parts[0], "cr"), ",") {
		var cr int64
		fmt.Sscanf(p, "%d", &cr)
		st.credits = append(st.credits, cr)
	}
	for ci, p := range parts[1:] {
		fields := strings.Split(p, ";")
		fmt.Sscanf(fields[0], "cur%d", &st.classes[ci].cur)
		for _, f := range fields[1:] {
			sub := strings.SplitN(f, ":", 3)
			var b subBucket
			fmt.Sscanf(sub[0], "%d", &b.tenant)
			fmt.Sscanf(sub[1], "%d", &b.deficit)
			if sub[2] != "" {
				for _, vs := range strings.Split(sub[2], ".") {
					var v uint32
					fmt.Sscanf(vs, "%d", &v)
					b.fifo = append(b.fifo, v)
				}
			}
			st.classes[ci].tenants = append(st.classes[ci].tenants, b)
		}
	}
	return st
}

func submissionModel(name string, numClasses int, aging int64, weightOf func(uint32) int64) Model {
	return Model{
		Name: name,
		Init: func() any {
			st := &subState{credits: make([]int64, numClasses), classes: make([]subClass, numClasses)}
			return encodeSub(st)
		},
		Step: func(state, input, output any) (bool, any) {
			st := decodeSub(state.(string))
			op := input.(TOp)
			out := output.(TRes)
			if op.Push {
				if !out.Ok {
					return true, state // slab exhausted: legal no-op
				}
				if op.Class < 0 || op.Class >= numClasses {
					return false, nil
				}
				st.classes[op.Class].push(op.Tenant, op.V)
				return true, encodeSub(st)
			}
			v, tenant, aged, ok := st.pop(aging, weightOf)
			if out.Ok != ok || (ok && (out.V != v || out.Tenant != tenant || out.Aged != aged)) {
				return false, nil
			}
			return true, encodeSub(st)
		},
		Describe: func(input, output any) string {
			return fmt.Sprintf("%v -> %v", input, output)
		},
	}
}

// SubmissionModel returns the sequential specification of the per-class
// strict-priority submission queue with the aging credit — the
// single-tenant discipline (every push uses Tenant 0), where DRR
// degenerates to one FIFO per class.
func SubmissionModel(numClasses int, aging int64) Model {
	return submissionModel("priority+aging submission queue", numClasses, aging,
		func(uint32) int64 { return 1 })
}

// DRRSubmissionModel returns the sequential specification of the
// multi-tenant submission scheduler: strict priority with aging across
// classes, weighted deficit round robin between tenants within a class.
// weightOf maps a tenant id to its DRR quantum (values < 1 count as 1)
// and must be a pure function of the id for the duration of the check.
func DRRSubmissionModel(numClasses int, aging int64, weightOf func(uint32) int64) Model {
	return submissionModel("tenant DRR submission scheduler", numClasses, aging, weightOf)
}
