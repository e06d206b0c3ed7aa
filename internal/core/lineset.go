package core

// lineSet is the set of line IDs an L1D has ever been asked for, kept
// for compulsory-miss accounting. It is a two-level bitset: line IDs
// are dense inside the arrays a kernel touches and those arrays are few,
// so a 4 KB page covers 32768 consecutive lines (4 MB of address space
// at 128-byte lines) and a small map finds the page. Pages appear on
// first touch — an idle cache owns nothing — and the map holds one
// entry per page, not per line, so it stays a few buckets however far
// the footprint grows. The zero value is an empty set.
type lineSet struct {
	pages map[uint64]*linePage
}

const linePageShift = 15 // log2 of the lines one page covers

type linePage [1 << (linePageShift - 6)]uint64

// add inserts id and reports whether it was absent.
func (s *lineSet) add(id uint64) bool {
	idx := id >> linePageShift
	pg := s.pages[idx]
	if pg == nil {
		if s.pages == nil {
			s.pages = make(map[uint64]*linePage)
		}
		pg = new(linePage)
		s.pages[idx] = pg
	}
	word, bit := &pg[id>>6&(uint64(len(pg))-1)], uint64(1)<<(id&63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}
