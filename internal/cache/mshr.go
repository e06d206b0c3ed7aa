package cache

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/mem"
	"repro/internal/ring"
)

// MSHREntry tracks one outstanding line fetch and the requests merged
// onto it. Set/Way name the reserved tag-array slot the fill will land
// in; NoAllocate entries (bypass-adjacent merges) fill nothing.
type MSHREntry struct {
	LineAddr addr.Addr
	Set, Way int
	Requests []*mem.Request
}

// MSHR is the miss-status holding register file of one cache.
type MSHR struct {
	maxEntries int
	maxMerges  int
	entries    map[addr.Addr]*MSHREntry
	// freeEntries recycles released entries (and their merged-request
	// slices) so the steady-state miss path allocates nothing.
	freeEntries []*MSHREntry
}

// NewMSHR builds an MSHR file with maxEntries entries, each accepting up
// to maxMerges merged requests (including the original).
func NewMSHR(maxEntries, maxMerges int) *MSHR {
	if maxEntries <= 0 || maxMerges <= 0 {
		panic(fmt.Sprintf("cache: invalid MSHR geometry %d/%d", maxEntries, maxMerges))
	}
	return &MSHR{
		maxEntries: maxEntries,
		maxMerges:  maxMerges,
		entries:    make(map[addr.Addr]*MSHREntry, maxEntries),
	}
}

// Lookup returns the entry for lineAddr, or nil.
func (m *MSHR) Lookup(lineAddr addr.Addr) *MSHREntry {
	return m.entries[lineAddr]
}

// Full reports whether a new entry cannot be allocated.
func (m *MSHR) Full() bool { return len(m.entries) >= m.maxEntries }

// Size returns the number of live entries.
func (m *MSHR) Size() int { return len(m.entries) }

// CanMerge reports whether one more request fits in entry e.
func (m *MSHR) CanMerge(e *MSHREntry) bool { return len(e.Requests) < m.maxMerges }

// Merge appends req to entry e. The caller must have checked CanMerge.
func (m *MSHR) Merge(e *MSHREntry, req *mem.Request) {
	if !m.CanMerge(e) {
		panic("cache: MSHR merge beyond capacity")
	}
	e.Requests = append(e.Requests, req)
}

// Allocate creates a new entry for req's line, targeting (set, way) for
// the fill. The caller must have checked Full and Lookup.
func (m *MSHR) Allocate(req *mem.Request, set, way int) *MSHREntry {
	if m.Full() {
		panic("cache: MSHR allocate while full")
	}
	if _, exists := m.entries[req.Addr]; exists {
		panic(fmt.Sprintf("cache: duplicate MSHR entry for %#x", uint64(req.Addr)))
	}
	var e *MSHREntry
	if n := len(m.freeEntries); n > 0 {
		e = m.freeEntries[n-1]
		m.freeEntries[n-1] = nil
		m.freeEntries = m.freeEntries[:n-1]
	} else {
		e = &MSHREntry{Requests: make([]*mem.Request, 0, m.maxMerges)}
	}
	e.LineAddr = req.Addr
	e.Set = set
	e.Way = way
	e.Requests = append(e.Requests, req)
	m.entries[req.Addr] = e
	return e
}

// Release removes and returns the entry for lineAddr when its fill
// arrives. It returns nil if no entry exists (e.g. a bypass response).
// The caller must hand the entry back with Recycle once it has
// delivered the merged requests.
func (m *MSHR) Release(lineAddr addr.Addr) *MSHREntry {
	e := m.entries[lineAddr]
	if e != nil {
		delete(m.entries, lineAddr)
	}
	return e
}

// Recycle returns a released entry to the MSHR's free list. The entry's
// request references are dropped; the caller keeps ownership of the
// requests themselves.
func (m *MSHR) Recycle(e *MSHREntry) {
	if e == nil {
		return
	}
	for i := range e.Requests {
		e.Requests[i] = nil
	}
	e.Requests = e.Requests[:0]
	m.freeEntries = append(m.freeEntries, e)
}

// FIFO is a bounded request queue (the miss queue toward the
// interconnect, and the never-stalling bypass queue): a ring.Queue with
// a capacity check in front of Push.
type FIFO struct {
	max int
	q   ring.Queue[*mem.Request]
}

// NewFIFO builds a queue holding at most max requests; max <= 0 means
// unbounded.
func NewFIFO(max int) *FIFO { return &FIFO{max: max} }

// Full reports whether Push would fail.
func (q *FIFO) Full() bool { return q.max > 0 && q.q.Len() >= q.max }

// Empty reports whether the queue holds nothing.
func (q *FIFO) Empty() bool { return q.q.Len() == 0 }

// Len returns the queued count.
func (q *FIFO) Len() int { return q.q.Len() }

// Push appends req; it reports false when the queue is full.
func (q *FIFO) Push(req *mem.Request) bool {
	if q.Full() {
		return false
	}
	q.q.Push(req)
	return true
}

// Pop removes and returns the head, or nil when empty.
func (q *FIFO) Pop() *mem.Request {
	if q.q.Len() == 0 {
		return nil
	}
	return q.q.Pop()
}

// Peek returns the head without removing it, or nil when empty.
func (q *FIFO) Peek() *mem.Request {
	if q.q.Len() == 0 {
		return nil
	}
	return *q.q.Front()
}
