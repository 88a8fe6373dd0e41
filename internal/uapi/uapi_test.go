package uapi

import (
	"testing"
	"testing/quick"

	"memif/internal/hw"
)

func TestAreaLifecycle(t *testing.T) {
	a := NewArea(8)
	if a.NumReqs() != 8 {
		t.Fatalf("NumReqs = %d", a.NumReqs())
	}
	var got []*MovReq
	for i := 0; i < 8; i++ {
		r := a.AllocReq()
		if r == nil {
			t.Fatalf("alloc %d failed", i)
		}
		got = append(got, r)
	}
	if a.AllocReq() != nil {
		t.Error("alloc beyond capacity succeeded")
	}
	for _, r := range got {
		a.FreeReq(r)
	}
	if a.AllocReq() == nil {
		t.Error("alloc after free-all failed")
	}
}

func TestAllocResetsFields(t *testing.T) {
	a := NewArea(1)
	r := a.AllocReq()
	r.Op = OpMigrate
	r.SrcBase, r.Length, r.DstNode = 0x1000, 4096, hw.NodeFast
	r.Status = StatusDone
	r.Err = ErrRace
	idx := r.Index()
	a.FreeReq(r)
	r2 := a.AllocReq()
	if r2.Index() != idx {
		t.Fatalf("slot not recycled: %d vs %d", r2.Index(), idx)
	}
	if r2.Op != OpReplicate || r2.SrcBase != 0 || r2.Err != ErrNone || r2.Status != StatusFree {
		t.Errorf("stale fields after realloc: %v", r2)
	}
}

func TestReqValidation(t *testing.T) {
	a := NewArea(4)
	if _, ok := a.Req(3); !ok {
		t.Error("valid index rejected")
	}
	if _, ok := a.Req(4); ok {
		t.Error("out-of-range index accepted")
	}
	if _, ok := a.Req(0xffffffff); ok {
		t.Error("hostile index accepted")
	}
}

func TestFreeActiveRequestPanics(t *testing.T) {
	a := NewArea(2)
	r := a.AllocReq()
	r.Status = StatusInFlight
	defer func() {
		if recover() == nil {
			t.Error("freeing in-flight request did not panic")
		}
	}()
	a.FreeReq(r)
}

func TestQueuesAreIsolated(t *testing.T) {
	a := NewArea(4)
	r := a.AllocReq()
	a.Staging.Enqueue(r.Index())
	if !a.Submission.Empty() || !a.CompOK.Empty() || !a.CompFail.Empty() {
		t.Error("enqueue on staging leaked into other queues")
	}
	idx, ok := a.Staging.Dequeue()
	if !ok || idx != r.Index() {
		t.Errorf("staging dequeue = %d,%v", idx, ok)
	}
}

func TestLatency(t *testing.T) {
	r := MovReq{Submitted: 100, Completed: 350}
	if r.Latency() != 250 {
		t.Errorf("Latency = %v, want 250", r.Latency())
	}
}

func TestStringersDontPanic(t *testing.T) {
	for _, o := range []Op{OpReplicate, OpMigrate} {
		_ = o.String()
	}
	for s := StatusFree; s <= StatusFailed; s++ {
		_ = s.String()
	}
	for e := ErrNone; e <= ErrTxnDirty; e++ {
		_ = e.String()
	}
	for c := ClassForeground; c <= ClassScavenger; c++ {
		_ = c.String()
	}
	r := MovReq{}
	_ = r.String()
	// Class and Err sit in the user-shared array: any byte must print.
	if c, e := Class(9).String(), ErrCode(200).String(); c != "class(9)" || e != "err(200)" {
		t.Errorf("out-of-range stringers = %q, %q", c, e)
	}
}

func TestBadAreaSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewArea(0) did not panic")
		}
	}()
	NewArea(0)
}

// Property: any interleaving of alloc/free keeps the number of live
// requests consistent and never hands out the same slot twice.
func TestAllocFreeProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		a := NewArea(16)
		live := map[uint32]*MovReq{}
		for _, alloc := range ops {
			if alloc {
				r := a.AllocReq()
				if len(live) == 16 {
					if r != nil {
						return false
					}
					continue
				}
				if r == nil {
					return false
				}
				if _, dup := live[r.Index()]; dup {
					return false
				}
				live[r.Index()] = r
			} else {
				for idx, r := range live {
					a.FreeReq(r)
					delete(live, idx)
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
