package core

// lineSet is the set of line IDs an L1D has ever been asked for, kept
// for compulsory-miss accounting. It is a two-level bitset: line IDs
// are dense inside the arrays a kernel touches and those arrays are few,
// so a 4 KB page covers 32768 consecutive lines (4 MB of address space
// at 128-byte lines) and a small open-addressed table finds the page —
// it sits on the miss path, where a Go map's hashing showed. Pages
// appear on first touch — an idle cache owns nothing — and the table
// holds one bucket per page, not per line, so it stays a few buckets
// however far the footprint grows. The zero value is an empty set.
type lineSet struct {
	buckets []pageBucket // len is zero or a power of two, at most half full
	n       int          // pages
	spare   []*linePage  // pages of an earlier run, zeroed when taken
}

// pageBucket is one table entry; key is the page number plus one, so
// the zero bucket is empty.
type pageBucket struct {
	key  uint64
	page *linePage
}

const linePageShift = 15 // log2 of the lines one page covers

type linePage [1 << (linePageShift - 6)]uint64

// bucket returns the bucket holding key, or the empty one that ends its
// probe sequence.
func (s *lineSet) bucket(key uint64) *pageBucket {
	mask := uint64(len(s.buckets) - 1)
	i := key * 0x9E3779B97F4A7C15 >> 32 & mask
	for s.buckets[i].key != 0 && s.buckets[i].key != key {
		i = (i + 1) & mask
	}
	return &s.buckets[i]
}

// add inserts id and reports whether it was absent.
func (s *lineSet) add(id uint64) bool {
	if 2*s.n >= len(s.buckets) {
		old := s.buckets
		s.buckets = make([]pageBucket, max(8, 2*len(old)))
		for _, b := range old {
			if b.key != 0 {
				*s.bucket(b.key) = b
			}
		}
	}
	b := s.bucket(id>>linePageShift + 1)
	if b.key == 0 {
		b.key, b.page = id>>linePageShift+1, s.newPage()
		s.n++
	}
	word, bit := &b.page[id>>6&(uint64(len(b.page))-1)], uint64(1)<<(id&63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// newPage returns an empty page, a spare one when there is one.
func (s *lineSet) newPage() *linePage {
	n := len(s.spare)
	if n == 0 {
		return new(linePage)
	}
	p := s.spare[n-1]
	s.spare[n-1] = nil
	s.spare = s.spare[:n-1]
	*p = linePage{}
	return p
}

// maxSparePages bounds the pages a reset keeps (a Table 2 app touches
// one to three), and the table with them: a run over a far wider address
// space does not leave its footprint behind for good.
const maxSparePages = 8

// reset empties the set. The table keeps its size and up to
// maxSparePages pages become spares, so a cache that runs again touches
// the same footprint without allocating it again.
func (s *lineSet) reset() {
	for i := range s.buckets {
		if b := &s.buckets[i]; b.key != 0 {
			if len(s.spare) < maxSparePages {
				s.spare = append(s.spare, b.page)
			}
			*b = pageBucket{}
		}
	}
	if len(s.buckets) > 2*maxSparePages {
		s.buckets = nil
	}
	s.n = 0
}
