package policy

import (
	"slices"

	"repro/internal/cache"
)

// vtaEntry is one victim tag: an address tag plus the instruction ID of
// the load that brought in or last hit the line before it was evicted
// (§4.1.2).
type vtaEntry struct {
	valid   bool
	tag     uint64
	insnID  uint8
	lastUse uint64
}

// VTA is the victim tag array: same set structure as the TDA, holding
// only tags of recently evicted lines, replaced LRU.
type VTA struct {
	sets    [][]vtaEntry // cut from entries, ways apiece
	entries []vtaEntry
	clock   uint64
}

// Reset empties the VTA and re-shapes it to numSets sets of ways
// entries, keeping its storage when it is large enough.
func (v *VTA) Reset(numSets, ways int) {
	v.entries = zeroed(v.entries, numSets*ways)
	v.sets = slices.Grow(v.sets[:0], numSets)[:numSets]
	backing := v.entries
	for i := range v.sets {
		v.sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	v.clock = 0
}

// Insert records an evicted line's tag and instruction ID in set. An
// existing entry with the same tag is refreshed instead of duplicated.
func (v *VTA) Insert(set int, tag uint64, insnID uint8) {
	v.clock++
	entries := v.sets[set]
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range entries {
		e := &entries[i]
		if e.valid && e.tag == tag {
			e.insnID = insnID
			e.lastUse = v.clock
			return
		}
		if !e.valid {
			victim = i
			oldest = 0
			continue
		}
		if e.lastUse < oldest {
			victim = i
			oldest = e.lastUse
		}
	}
	entries[victim] = vtaEntry{valid: true, tag: tag, insnID: insnID, lastUse: v.clock}
}

// InsertVictim records the line a serviced miss displaced; an empty way
// (Valid false) displaced nothing.
func (v *VTA) InsertVictim(set int, evicted cache.Line) {
	if evicted.Valid {
		v.Insert(set, evicted.Tag, evicted.InsnID)
	}
}

// Lookup searches set for tag. On a hit it removes the entry (the line is
// about to be refetched into the TDA) and returns the instruction ID the
// hit is credited to.
func (v *VTA) Lookup(set int, tag uint64) (insnID uint8, hit bool) {
	entries := v.sets[set]
	for i := range entries {
		e := &entries[i]
		if e.valid && e.tag == tag {
			id := e.insnID
			*e = vtaEntry{}
			return id, true
		}
	}
	return 0, false
}

// Peek searches set for tag without consuming the entry, used when a
// bypassed access observes reuse but the line is not refetched.
func (v *VTA) Peek(set int, tag uint64) (insnID uint8, hit bool) {
	for i := range v.sets[set] {
		e := &v.sets[set][i]
		if e.valid && e.tag == tag {
			return e.insnID, true
		}
	}
	return 0, false
}

// Len returns the number of valid entries, for tests.
func (v *VTA) Len() int {
	n := 0
	for _, set := range v.sets {
		for _, e := range set {
			if e.valid {
				n++
			}
		}
	}
	return n
}
