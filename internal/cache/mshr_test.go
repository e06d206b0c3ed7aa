package cache

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/mem"
	"repro/internal/prng"
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

// collidingLines returns n line addresses whose home bucket in m is home.
func collidingLines(m *MSHR, home, n int) []addr.Addr {
	var out []addr.Addr
	for a := addr.Addr(128); len(out) < n; a += 128 {
		if m.home(a) == home {
			out = append(out, a)
		}
	}
	return out
}

// TestMSHRMatchesMapModel drives the open-addressed table and a map with
// the same seeded random allocate / merge / release / recycle sequence
// and compares every lookup, the size and Full after every step. The
// addresses are chosen by home bucket — the table's last two buckets and
// its first — so runs collide, wrap around the end of the table, fill it
// to maxEntries, and lose entries from their middle (the backward shift).
func TestMSHRMatchesMapModel(t *testing.T) {
	for _, maxEntries := range []int{1, 5, 8, 32} {
		m := NewMSHR(maxEntries, 3)
		buckets := len(m.table)
		if buckets < 2*maxEntries || buckets&(buckets-1) != 0 {
			t.Fatalf("%d entries got %d buckets, want a power of two at least twice as many", maxEntries, buckets)
		}
		var lines []addr.Addr
		for _, home := range []int{buckets - 2, buckets - 1, 0} {
			lines = append(lines, collidingLines(m, home, maxEntries)...)
		}
		type modelEntry struct {
			set, way int
			reqs     []*mem.Request
		}
		model := map[addr.Addr]*modelEntry{}
		rng := prng.New(uint64(maxEntries))
		var wrapped, full, shifted int
		check := func(step int) {
			t.Helper()
			if m.Size() != len(model) || m.Full() != (len(model) >= maxEntries) {
				t.Fatalf("step %d: Size=%d Full=%v, model holds %d of %d", step, m.Size(), m.Full(), len(model), maxEntries)
			}
			for _, a := range lines {
				e, want := m.Lookup(a), model[a]
				if (e == nil) != (want == nil) {
					t.Fatalf("step %d: Lookup(%#x) = %v, model has %v", step, uint64(a), e, want)
				}
				if e == nil {
					continue
				}
				if e.LineAddr != a || e.Set != want.set || e.Way != want.way || len(e.Requests) != len(want.reqs) {
					t.Fatalf("step %d: entry %+v, model %+v", step, e, want)
				}
				for i, r := range e.Requests {
					if r != want.reqs[i] {
						t.Fatalf("step %d: line %#x request %d differs", step, uint64(a), i)
					}
				}
			}
			for i, e := range m.table {
				if e != nil && i < m.home(e.LineAddr) {
					wrapped++
				}
			}
		}
		for step := 0; step < 4000; step++ {
			a := lines[rng.Intn(len(lines))]
			r := &mem.Request{ID: uint64(step), Addr: a}
			switch e := m.Lookup(a); {
			case e == nil && !m.Full():
				set, way := rng.Intn(64), rng.Intn(8)
				m.Allocate(r, set, way)
				model[a] = &modelEntry{set, way, []*mem.Request{r}}
				if m.Full() {
					full++
				}
			case e != nil && m.CanMerge(e) && rng.Intn(2) == 0:
				m.Merge(e, r)
				model[a].reqs = append(model[a].reqs, r)
			default:
				// Release a random live line (or a dead one: nil).
				a = lines[rng.Intn(len(lines))]
				if i := m.find(a); m.table[i] != nil && m.table[(i+1)&(buckets-1)] != nil {
					shifted++
				}
				e := m.Release(a)
				if (e == nil) != (model[a] == nil) {
					t.Fatalf("step %d: Release(%#x) = %v, model has %v", step, uint64(a), e, model[a])
				}
				delete(model, a)
				m.Recycle(e)
			}
			check(step)
		}
		if maxEntries > 1 && (wrapped == 0 || full == 0 || shifted == 0) {
			t.Errorf("%d entries: %d wrapped sightings, %d times full, %d releases ahead of a neighbour: the sequence proves nothing",
				maxEntries, wrapped, full, shifted)
		}
	}
}

// TestMSHRFullOfOneHomeBucket fills the file with lines of one home
// bucket, the longest run the table can hold, and takes them out from
// the front, so every release shifts the whole remaining run.
func TestMSHRFullOfOneHomeBucket(t *testing.T) {
	m := NewMSHR(8, 1)
	lines := collidingLines(m, len(m.table)-3, 8)
	for i, a := range lines {
		m.Allocate(req(uint64(i), a), i, 0)
	}
	if !m.Full() {
		t.Fatal("eight of eight entries and not Full")
	}
	for i, a := range lines {
		if e := m.Release(a); e == nil || e.Set != i {
			t.Fatalf("Release(%#x) = %+v, want the entry allocated %d-th", uint64(a), e, i)
		}
		for j, b := range lines {
			if got := m.Lookup(b); (got != nil) != (j > i) {
				t.Fatalf("after %d releases Lookup(line %d) = %v", i+1, j, got)
			}
		}
	}
	for i, e := range m.table {
		if e != nil {
			t.Errorf("bucket %d still holds %+v after every release", i, e)
		}
	}
}

// TestMSHRSteadyStateAllocs pins the allocate / merge / release /
// recycle cycle allocation-free once the free list is primed.
func TestMSHRSteadyStateAllocs(t *testing.T) {
	m := NewMSHR(32, 8)
	reqs := make([]*mem.Request, 64)
	for i := range reqs {
		reqs[i] = req(uint64(i), addr.Addr(i/2*128))
	}
	round := func() {
		for i := 0; i < len(reqs); i += 2 {
			m.Merge(m.Allocate(reqs[i], i, 0), reqs[i+1])
		}
		for i := 0; i < len(reqs); i += 2 {
			m.Recycle(m.Release(reqs[i].Addr))
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("MSHR cycle allocates %.2f per round, want 0", avg)
	}
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
	var q FIFO
	q.Reset(2)
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
	var q FIFO
	q.Reset(0)
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
	var q FIFO
	q.Reset(0)
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
