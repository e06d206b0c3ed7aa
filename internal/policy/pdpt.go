package policy

import "slices"

// PDPT is the Protection Distance Prediction Table (§4.1.3): one entry
// per memory-instruction ID, each accumulating TDA and VTA hits over the
// current sampling period and holding the instruction's current
// protection distance.
//
// The same structure, restricted to a single shared entry, implements the
// Global-Protection comparator (§5.3): construct it with NewGlobalPDT.
// With one entry every instruction maps to it, so its hit counters are
// the global ones and its PD follows the global VTA/TDA ratio: the
// Global-Protection mode needs no rule of its own.
type PDPT struct {
	global  bool // Global-Protection mode: Reset keeps one entry
	nasc    int  // VTA associativity, the paper's Nasc
	maxPD   int  // saturation value of the PD field (2^PDBits - 1)
	tdaHits []uint64
	vtaHits []uint64
	pd      []int

	globalTDA uint64
	globalVTA uint64
	samples   uint64 // completed sampling periods, for introspection
	grows     uint64 // periods that took Fig. 9's increase path
	shrinks   uint64 // periods that took its decrease path; the rest held
}

// NewPDPT builds a per-instruction table with entries slots (the paper
// uses 128), Nasc = nasc and a PD field saturating at maxPD.
func NewPDPT(entries, nasc, maxPD int) *PDPT {
	p := &PDPT{}
	p.Reset(entries, nasc, maxPD)
	return p
}

// NewGlobalPDT builds the Global-Protection variant: a one-entry table,
// whose single PD is driven by the global hit counters.
func NewGlobalPDT(nasc, maxPD int) *PDPT {
	p := &PDPT{global: true}
	p.Reset(1, nasc, maxPD)
	return p
}

// Reset re-initialises the table in place — every PD and hit counter at
// zero, no sample taken — with entries slots (one, whatever is asked,
// for the Global-Protection variant), keeping its arrays when they are
// large enough.
func (p *PDPT) Reset(entries, nasc, maxPD int) {
	if entries <= 0 || nasc <= 0 || maxPD <= 0 {
		panic("policy: invalid PDPT parameters")
	}
	if p.global {
		entries = 1
	}
	*p = PDPT{
		global:  p.global,
		nasc:    nasc,
		maxPD:   maxPD,
		tdaHits: zeroed(p.tdaHits, entries),
		vtaHits: zeroed(p.vtaHits, entries),
		pd:      zeroed(p.pd, entries),
	}
}

// zeroed returns s resized to n zero elements, reusing its array when
// the capacity allows.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

func (p *PDPT) idx(insnID uint8) int { return int(insnID) % len(p.pd) }

// CreditTDA records a tag-and-data-array hit attributed to insnID.
func (p *PDPT) CreditTDA(insnID uint8) {
	p.tdaHits[p.idx(insnID)]++
	p.globalTDA++
}

// CreditVTA records a victim-tag-array hit attributed to insnID.
func (p *PDPT) CreditVTA(insnID uint8) {
	p.vtaHits[p.idx(insnID)]++
	p.globalVTA++
}

// PD returns the current protection distance for insnID.
func (p *PDPT) PD(insnID uint8) int { return p.pd[p.idx(insnID)] }

// Samples returns the number of completed sampling periods.
func (p *PDPT) Samples() uint64 { return p.samples }

// Branches returns how many completed sampling periods took Fig. 9's
// increase (grows) and decrease (shrinks) paths; the other
// Samples()-grows-shrinks periods left every PD where it was.
func (p *PDPT) Branches() (grows, shrinks uint64) { return p.grows, p.shrinks }

// GlobalHits returns the running global TDA and VTA hit counters of the
// current sample, for tests and introspection.
func (p *PDPT) GlobalHits() (tda, vta uint64) { return p.globalTDA, p.globalVTA }

// EntryHits returns insnID's per-entry hit counters for the current
// sample, for tests and introspection.
func (p *PDPT) EntryHits(insnID uint8) (tda, vta uint64) {
	i := p.idx(insnID)
	return p.tdaHits[i], p.vtaHits[i]
}

// stepAdj implements the paper's shift-based step comparison (§4.2): it
// approximates Nasc * floor(HitVTA/HitTDA) by comparing HitVTA against
// 4x, 2x, 1x and 1/2x HitTDA, capping the increment at 4*Nasc. An
// instruction with no VTA hits gets no increment.
func stepAdj(vta, tda uint64, nasc int) int {
	if vta == 0 {
		return 0
	}
	switch {
	case vta >= 4*tda:
		return 4 * nasc
	case vta >= 2*tda:
		return 2 * nasc
	case vta >= tda:
		return nasc
	case 2*vta >= tda:
		return nasc / 2
	default:
		return 0
	}
}

// EndSample closes the current sampling period and recomputes protection
// distances following Figure 9:
//
//   - global VTA hits > global TDA hits: increase each instruction's PD
//     by Nasc * step(HitVTA/HitTDA) (per-PC on the left path);
//   - global VTA hits < 1/2 global TDA hits: decrease every PD by Nasc
//     (globally, right path);
//   - otherwise leave PDs unchanged.
//
// All per-instruction and global hit counters reset afterwards.
func (p *PDPT) EndSample() {
	switch {
	case p.globalVTA > p.globalTDA:
		for i := range p.pd {
			adj := stepAdj(p.vtaHits[i], p.tdaHits[i], p.nasc)
			p.pd[i] = min(p.pd[i]+adj, p.maxPD)
		}
		p.grows++
	case 2*p.globalVTA < p.globalTDA:
		for i := range p.pd {
			p.pd[i] = max(p.pd[i]-p.nasc, 0)
		}
		p.shrinks++
	}
	for i := range p.tdaHits {
		p.tdaHits[i] = 0
		p.vtaHits[i] = 0
	}
	p.globalTDA = 0
	p.globalVTA = 0
	p.samples++
}

// Sampler counts L1D accesses and SM instructions to decide when a
// sampling period ends (§4.1.4): after accessLimit cache accesses, or —
// so that cache-sufficient kernels with few loads still close samples —
// after insnCap instructions.
type Sampler struct {
	accessLimit uint64
	insnCap     uint64
	accesses    uint64
	insns       uint64
}

// Reset starts the sampler over, at the start of a period, with the
// given limits.
func (s *Sampler) Reset(accessLimit, insnCap int) {
	if accessLimit <= 0 || insnCap <= 0 {
		panic("policy: invalid sampler parameters")
	}
	*s = Sampler{accessLimit: uint64(accessLimit), insnCap: uint64(insnCap)}
}

// NoteAccess records one cache access and reports whether the sample just
// closed.
func (s *Sampler) NoteAccess() bool {
	s.accesses++
	if s.accesses >= s.accessLimit {
		s.reset()
		return true
	}
	return false
}

// NoteInstructions records n executed instructions and reports whether
// the instruction cap closed the sample.
func (s *Sampler) NoteInstructions(n uint64) bool {
	s.insns += n
	if s.insns >= s.insnCap {
		s.reset()
		return true
	}
	return false
}

func (s *Sampler) reset() {
	s.accesses = 0
	s.insns = 0
}
