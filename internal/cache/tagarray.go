// Package cache provides the mechanical pieces shared by every cache
// level of the simulator: a set-associative tag array with LRU state and
// line reservation, miss-status holding registers (MSHRs) with request
// merging, and a bounded miss queue. Policy decisions — victim
// eligibility, bypassing, protection — live in internal/core; this
// package only implements the machinery those policies drive.
package cache

import (
	"fmt"

	"repro/internal/addr"
)

// ProbeResult classifies a tag-array lookup.
type ProbeResult int

const (
	// ProbeMiss: no line in the set matches the tag.
	ProbeMiss ProbeResult = iota
	// ProbeHit: a valid line matches.
	ProbeHit
	// ProbeReserved: a line matches but is still being filled; the access
	// must merge into the MSHR entry for that line.
	ProbeReserved
)

// Line is one tag-array entry. InsnID and PL are the paper's DLP metadata
// (§4.1.1): the hashed PC of the instruction that brought in or last hit
// the line, and its remaining Protected Life.
type Line struct {
	Valid    bool
	Reserved bool // allocated to a pending fill; cannot be replaced
	Dirty    bool
	Tag      uint64
	LastUse  uint64 // LRU timestamp; larger is more recent
	InsnID   uint8
	PL       int
}

// TagArray is a set-associative tag array.
type TagArray struct {
	mapper *addr.Mapper
	ways   int
	sets   [][]Line // cut from lines, ways apiece
	lines  []Line
	clock  uint64
}

// NewTagArray builds a tag array over the given mapper with ways
// associativity.
func NewTagArray(m *addr.Mapper, ways int) *TagArray {
	t := &TagArray{}
	t.Reset(m, ways)
	return t
}

// Reset re-initialises the array over m with ways associativity: every
// line invalid, the LRU clock at zero. The line storage is kept when it
// is large enough and grown when it is not.
func (t *TagArray) Reset(m *addr.Mapper, ways int) {
	if ways <= 0 {
		panic(fmt.Sprintf("cache: non-positive associativity %d", ways))
	}
	n := m.NumSets()
	if cap(t.lines) < n*ways {
		t.lines = make([]Line, n*ways)
	} else {
		t.lines = t.lines[:n*ways]
		clear(t.lines)
	}
	backing := t.lines
	if cap(t.sets) < n {
		t.sets = make([][]Line, n)
	}
	t.sets = t.sets[:n]
	for i := range t.sets {
		t.sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	t.mapper, t.ways, t.clock = m, ways, 0
}

// Ways returns the associativity.
func (t *TagArray) Ways() int { return t.ways }

// NumSets returns the number of sets.
func (t *TagArray) NumSets() int { return len(t.sets) }

// Mapper returns the address mapper the array was built with.
func (t *TagArray) Mapper() *addr.Mapper { return t.mapper }

// Set returns the lines of set s for policy inspection and metadata
// updates (PL decrement, instruction-ID rewrites).
func (t *TagArray) Set(s int) []Line { return t.sets[s] }

// Probe looks up address a and returns its set, the matching way (or -1),
// and the probe classification.
func (t *TagArray) Probe(a addr.Addr) (set, way int, res ProbeResult) {
	set = t.mapper.Set(a)
	tag := t.mapper.Tag(a)
	for w := range t.sets[set] {
		ln := &t.sets[set][w]
		if ln.Tag != tag {
			continue
		}
		if ln.Valid {
			return set, w, ProbeHit
		}
		if ln.Reserved {
			return set, w, ProbeReserved
		}
	}
	return set, -1, ProbeMiss
}

// Touch marks (set, way) most recently used.
func (t *TagArray) Touch(set, way int) {
	t.clock++
	t.sets[set][way].LastUse = t.clock
}

// VictimIn selects a replacement victim in set. Invalid, unreserved ways
// are preferred; otherwise the LRU valid line for which eligible returns
// true. Reserved lines are never eligible. It returns -1 if no way
// qualifies. Passing a nil eligible accepts any valid line (plain LRU).
func (t *TagArray) VictimIn(set int, eligible func(*Line) bool) int {
	victim := -1
	var oldest uint64
	for w := range t.sets[set] {
		ln := &t.sets[set][w]
		if ln.Reserved {
			continue
		}
		if !ln.Valid {
			return w
		}
		if eligible != nil && !eligible(ln) {
			continue
		}
		if victim == -1 || ln.LastUse < oldest {
			victim = w
			oldest = ln.LastUse
		}
	}
	return victim
}

// Reserve evicts whatever occupies (set, way) and reserves the way for an
// incoming fill of address a. It returns a copy of the evicted line; the
// caller checks Valid to know whether a real eviction happened.
func (t *TagArray) Reserve(set, way int, a addr.Addr) Line {
	evicted := t.sets[set][way]
	if evicted.Reserved {
		panic(fmt.Sprintf("cache: reserving an already-reserved way %d in set %d", way, set))
	}
	t.clock++
	t.sets[set][way] = Line{
		Reserved: true,
		Tag:      t.mapper.Tag(a),
		LastUse:  t.clock,
	}
	return evicted
}

// Fill completes the pending fill on (set, way), making the line valid.
func (t *TagArray) Fill(set, way int) {
	ln := &t.sets[set][way]
	if !ln.Reserved {
		panic(fmt.Sprintf("cache: filling a non-reserved way %d in set %d", way, set))
	}
	ln.Reserved = false
	ln.Valid = true
	t.clock++
	ln.LastUse = t.clock
}

// Invalidate drops the line at (set, way) (write-evict stores).
func (t *TagArray) Invalidate(set, way int) {
	t.sets[set][way] = Line{}
}

// CountValid returns the number of valid lines in the whole array,
// used by invariants tests.
func (t *TagArray) CountValid() int {
	n := 0
	for s := range t.sets {
		for w := range t.sets[s] {
			if t.sets[s][w].Valid {
				n++
			}
		}
	}
	return n
}
