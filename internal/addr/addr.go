// Package addr provides address arithmetic shared by every cache level:
// line extraction, set indexing (linear and hashed), and tag computation.
//
// The simulator uses 64-bit byte addresses. A cache geometry is described
// by its line size and number of sets, both powers of two. The baseline
// L1D uses a hashed set index (Table 1 of the paper: "Hash index") while
// the L2 uses a linear index ("Linear index").
package addr

import "fmt"

// Addr is a 64-bit byte address in the simulated global memory space.
type Addr uint64

// Mapper converts byte addresses into (line, set, tag) coordinates for a
// particular cache geometry.
type Mapper struct {
	lineSize   uint64
	numSets    uint64
	lineShift  uint
	setShift   uint
	setMask    uint64
	hashedIdx  bool
	partitions uint64 // number of memory partitions for ChipOf; 0 = unused
}

// IndexKind selects the set-index function of a Mapper.
type IndexKind int

const (
	// LinearIndex uses the low-order set bits directly above the line offset.
	LinearIndex IndexKind = iota
	// HashIndex XOR-folds higher address bits into the set bits, which is
	// what GPGPU-Sim style L1Ds do to spread power-of-two strides.
	HashIndex
)

// NewMapper builds a Mapper. lineSize and numSets must be powers of two.
func NewMapper(lineSize, numSets int, kind IndexKind) (*Mapper, error) {
	m := &Mapper{}
	if err := m.Reset(lineSize, numSets, kind, 0); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset re-initialises m in place for the given geometry. A positive
// partitions makes m the mapper of one slice of a cache whose lines are
// interleaved across that many memory partitions: the slice sees every
// partitions-th line, so its set index is computed from
// lineID/partitions. Without this, a partition count that shares
// factors with the set count would leave most sets unreachable. Zero
// means a cache that is not interleaved. On an error m is left as it
// was.
func (m *Mapper) Reset(lineSize, numSets int, kind IndexKind, partitions int) error {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return fmt.Errorf("addr: line size %d is not a positive power of two", lineSize)
	}
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		return fmt.Errorf("addr: set count %d is not a positive power of two", numSets)
	}
	if partitions < 0 {
		return fmt.Errorf("addr: partition count %d is negative", partitions)
	}
	*m = Mapper{
		lineSize:   uint64(lineSize),
		numSets:    uint64(numSets),
		lineShift:  log2(uint64(lineSize)),
		setShift:   log2(uint64(numSets)),
		setMask:    uint64(numSets) - 1,
		hashedIdx:  kind == HashIndex,
		partitions: uint64(partitions),
	}
	return nil
}

// MustMapper is NewMapper but panics on invalid geometry. It is intended
// for package-level configuration code where the geometry is static.
func MustMapper(lineSize, numSets int, kind IndexKind) *Mapper {
	m, err := NewMapper(lineSize, numSets, kind)
	if err != nil {
		panic(err)
	}
	return m
}

// LineSize reports the cache line size in bytes.
func (m *Mapper) LineSize() int { return int(m.lineSize) }

// NumSets reports the number of sets.
func (m *Mapper) NumSets() int { return int(m.numSets) }

// Line returns the line-aligned address containing a.
func (m *Mapper) Line(a Addr) Addr {
	return a &^ Addr(m.lineSize-1)
}

// LineID returns the line number (address divided by line size).
func (m *Mapper) LineID(a Addr) uint64 {
	return uint64(a) >> m.lineShift
}

// Set returns the set index for address a.
func (m *Mapper) Set(a Addr) int {
	id := uint64(a) >> m.lineShift
	if m.partitions > 1 {
		id /= m.partitions
	}
	if !m.hashedIdx {
		return int(id & m.setMask)
	}
	// XOR-fold three windows of line-number bits into the index so that
	// large power-of-two strides do not map every access to one set.
	h := id ^ (id >> m.setShift) ^ (id >> (2 * m.setShift))
	return int(h & m.setMask)
}

// Tag returns the tag for address a: every line-number bit above the set
// index. Because the hashed index folds high bits into the set, the tag
// must keep the full line number so distinct lines never alias.
func (m *Mapper) Tag(a Addr) uint64 {
	return uint64(a) >> m.lineShift
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// PartitionOf maps a line address onto one of n memory partitions by
// interleaving consecutive lines across partitions, the standard GPU
// address-interleaving scheme.
func PartitionOf(a Addr, lineSize, n int) int {
	if n <= 0 {
		return 0
	}
	return int((uint64(a) / uint64(lineSize)) % uint64(n))
}

// HashPC folds a program counter into the paper's 7-bit instruction ID
// space (128 PDPT entries).
func HashPC(pc uint32) uint8 {
	h := pc
	h ^= h >> 7
	h ^= h >> 14
	return uint8(h & 0x7f)
}
