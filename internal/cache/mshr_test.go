package cache

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/mem"
)

func req(id uint64, a addr.Addr) *mem.Request {
	return &mem.Request{ID: id, Addr: a}
}

func TestMSHRAllocateLookupRelease(t *testing.T) {
	m := NewMSHR(4, 8)
	r := req(1, 0x1000)
	e := m.Allocate(r, 3, 1)
	if e.Set != 3 || e.Way != 1 || len(e.Requests) != 1 {
		t.Errorf("entry = %+v", e)
	}
	if got := m.Lookup(0x1000); got != e {
		t.Error("Lookup did not find the entry")
	}
	if m.Size() != 1 {
		t.Errorf("Size = %d", m.Size())
	}
	rel := m.Release(0x1000)
	if rel != e {
		t.Error("Release returned wrong entry")
	}
	if m.Lookup(0x1000) != nil || m.Size() != 0 {
		t.Error("entry survived Release")
	}
	if m.Release(0x1000) != nil {
		t.Error("second Release returned an entry")
	}
}

func TestMSHRFull(t *testing.T) {
	m := NewMSHR(2, 8)
	m.Allocate(req(1, 0x1000), 0, 0)
	if m.Full() {
		t.Error("Full with one of two entries")
	}
	m.Allocate(req(2, 0x2000), 0, 1)
	if !m.Full() {
		t.Error("not Full with two of two entries")
	}
}

func TestMSHRMergeLimit(t *testing.T) {
	m := NewMSHR(4, 3)
	e := m.Allocate(req(1, 0x1000), 0, 0)
	if !m.CanMerge(e) {
		t.Fatal("cannot merge into fresh entry")
	}
	m.Merge(e, req(2, 0x1000))
	m.Merge(e, req(3, 0x1000))
	if m.CanMerge(e) {
		t.Error("CanMerge true at capacity 3")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Merge beyond capacity did not panic")
		}
	}()
	m.Merge(e, req(4, 0x1000))
}

func TestMSHRAllocatePanics(t *testing.T) {
	m := NewMSHR(1, 8)
	m.Allocate(req(1, 0x1000), 0, 0)
	t.Run("full", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("Allocate while full did not panic")
			}
		}()
		m.Allocate(req(2, 0x2000), 0, 1)
	})
	m2 := NewMSHR(4, 8)
	m2.Allocate(req(1, 0x1000), 0, 0)
	t.Run("duplicate", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate Allocate did not panic")
			}
		}()
		m2.Allocate(req(2, 0x1000), 0, 1)
	})
}

func TestNewMSHRPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 entries")
		}
	}()
	NewMSHR(0, 1)
}

func TestFIFOOrderAndBounds(t *testing.T) {
	q := NewFIFO(2)
	if !q.Empty() || q.Full() || q.Len() != 0 {
		t.Error("fresh queue state wrong")
	}
	if q.Pop() != nil || q.Peek() != nil {
		t.Error("Pop/Peek of empty queue returned a request")
	}
	r1, r2, r3 := req(1, 0), req(2, 0), req(3, 0)
	if !q.Push(r1) || !q.Push(r2) {
		t.Fatal("pushes into empty queue failed")
	}
	if q.Push(r3) {
		t.Error("push into full queue succeeded")
	}
	if q.Peek() != r1 {
		t.Error("Peek != first pushed")
	}
	if q.Pop() != r1 || q.Pop() != r2 {
		t.Error("FIFO order violated")
	}
	if !q.Empty() {
		t.Error("queue not empty after draining")
	}
}

func TestFIFOUnbounded(t *testing.T) {
	q := NewFIFO(0)
	for i := 0; i < 1000; i++ {
		if !q.Push(req(uint64(i), 0)) {
			t.Fatalf("unbounded push %d failed", i)
		}
	}
	if q.Full() {
		t.Error("unbounded queue reports Full")
	}
	for i := 0; i < 1000; i++ {
		if got := q.Pop(); got == nil || got.ID != uint64(i) {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
}

// TestFIFODrainedRetainsNothing runs the ring through wrap-around and
// growth-while-wrapped, checks order throughout, and then that the queue
// drains to empty: the simulator recycles requests through pools, and a
// stale slot would keep one (and everything it references) reachable for
// the life of the cache.
func TestFIFODrainedRetainsNothing(t *testing.T) {
	q := NewFIFO(0)
	next, want := uint64(0), uint64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(req(next, 0))
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := q.Pop(); got == nil || got.ID != want {
				t.Fatalf("pop = %v, want ID %d", got, want)
			}
			want++
		}
	}
	push(6)
	pop(5)   // head sits at 5 of 8
	push(7)  // wraps
	push(20) // grows while wrapped, twice
	pop(3)
	push(40)
	if q.Len() != int(next-want) || q.Peek().ID != want {
		t.Fatalf("Len = %d, Peek = %v; want %d queued from ID %d", q.Len(), q.Peek(), next-want, want)
	}
	pop(q.Len())
	if !q.Empty() || q.Pop() != nil {
		t.Fatal("queue not empty after draining")
	}
	// That no slot of the drained ring still points at a request is
	// ring.TestQueueDrainedRetainsNothing, next to the buffer itself.
}
