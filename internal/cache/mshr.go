package cache

import (
	"fmt"
	"math/bits"

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

// MSHR is the miss-status holding register file of one cache. Entries
// are found through a flat open-addressed table of at least twice
// maxEntries buckets — linear probing from the line address's home
// bucket, backward-shift deletion, so there are no tombstones and a
// probe always ends at an empty bucket.
type MSHR struct {
	maxEntries int
	maxMerges  int
	table      []*MSHREntry // nil: empty bucket; len is a power of two
	shift      uint         // home bucket = hash >> shift
	size       int          // live entries
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
	log := bits.Len(uint(2*maxEntries - 1))
	return &MSHR{
		maxEntries: maxEntries,
		maxMerges:  maxMerges,
		table:      make([]*MSHREntry, 1<<log),
		shift:      uint(64 - log),
	}
}

// home is lineAddr's first bucket. Line addresses differ in a few middle
// bits; the multiplicative hash spreads those over the top ones.
func (m *MSHR) home(lineAddr addr.Addr) int {
	return int(uint64(lineAddr) * 0x9E3779B97F4A7C15 >> m.shift)
}

// find returns the bucket holding lineAddr's entry, or the empty bucket
// that ends its probe sequence.
func (m *MSHR) find(lineAddr addr.Addr) int {
	i := m.home(lineAddr)
	for e := m.table[i]; e != nil && e.LineAddr != lineAddr; e = m.table[i] {
		i = (i + 1) & (len(m.table) - 1)
	}
	return i
}

// Lookup returns the entry for lineAddr, or nil.
func (m *MSHR) Lookup(lineAddr addr.Addr) *MSHREntry {
	return m.table[m.find(lineAddr)]
}

// Full reports whether a new entry cannot be allocated.
func (m *MSHR) Full() bool { return m.size >= m.maxEntries }

// Size returns the number of live entries.
func (m *MSHR) Size() int { return m.size }

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
	i := m.find(req.Addr)
	if m.table[i] != nil {
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
	m.table[i] = e
	m.size++
	return e
}

// Release removes and returns the entry for lineAddr when its fill
// arrives. It returns nil if no entry exists (e.g. a bypass response).
// The caller must hand the entry back with Recycle once it has
// delivered the merged requests.
func (m *MSHR) Release(lineAddr addr.Addr) *MSHREntry {
	i := m.find(lineAddr)
	e := m.table[i]
	if e == nil {
		return nil
	}
	// Close the hole: walk the rest of the run and pull back every entry
	// whose home is at or before the hole, so no probe sequence is cut.
	mask := len(m.table) - 1
	for j := (i + 1) & mask; m.table[j] != nil; j = (j + 1) & mask {
		if (j-m.home(m.table[j].LineAddr))&mask >= (j-i)&mask {
			m.table[i] = m.table[j]
			i = j
		}
	}
	m.table[i] = nil
	m.size--
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
