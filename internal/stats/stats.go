// Package stats collects the counters every figure in the paper is built
// from, and provides the aggregation helpers (geometric means, series
// normalization) used by the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats is the set of counters one simulation run produces. All counts are
// totals across SMs unless noted otherwise.
type Stats struct {
	Cycles       uint64 // core-clock cycles simulated
	Instructions uint64 // thread instructions completed (warp insns x active lanes)
	WarpInsns    uint64 // warp instructions issued

	// L1D counters (summed over all SM L1Ds).
	L1DAccesses   uint64 // requests that queried the cache (incl. ones later bypassed)
	L1DHits       uint64 // TDA hits
	L1DMisses     uint64 // misses serviced by the cache (allocated a line / merged in MSHR)
	L1DBypasses   uint64 // requests sent around the cache
	L1DEvictions  uint64 // valid lines evicted from the TDA
	L1DStalls     uint64 // cycles the L1D blocked its input pipeline register
	L1DTraffic    uint64 // accesses serviced in-cache: hits + misses (Fig. 11a metric)
	VTAHits       uint64 // victim-tag-array hits (DLP/GP only)
	StoreAccesses uint64 // write-through stores presented to the L1D

	// Reuse accounting (for Fig. 4-style analysis on the live cache).
	L1DCompulsory uint64 // first-ever touches of a line (compulsory misses)

	// Memory-side counters.
	L2Accesses uint64
	L2Hits     uint64
	L2Misses   uint64
	DRAMReads  uint64
	DRAMWrites uint64

	// Interconnect flits in both directions, including the background
	// traffic from the other L1 caches (L1I/L1C/L1T model).
	ICNTFlits     uint64
	ICNTDataFlits uint64 // flits carrying L1D-originated packets only
}

// IPC returns thread instructions per core cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// L1DHitRate returns hits over in-cache accesses (hits+misses); bypassed
// requests do not count against the cache, matching §6.3 ("the bypassed
// memory accesses do not count towards the L1D cache rate").
func (s *Stats) L1DHitRate() float64 {
	den := s.L1DHits + s.L1DMisses
	if den == 0 {
		return 0
	}
	return float64(s.L1DHits) / float64(den)
}

// MemoryAccessRatio returns memory accesses divided by thread instructions
// (Fig. 6). Loads (bypassed or not) are already included in L1DAccesses;
// write-through stores are tracked separately and added here.
func (s *Stats) MemoryAccessRatio() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L1DAccesses+s.StoreAccesses) / float64(s.Instructions)
}

// Clone returns an independent snapshot of s. The experiment runner's
// result cache stores and serves clones so no consumer can corrupt a
// cached entry (Stats is a flat value struct, so a shallow copy is a
// deep copy).
func (s *Stats) Clone() *Stats {
	c := *s
	return &c
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.Cycles += other.Cycles
	s.Instructions += other.Instructions
	s.WarpInsns += other.WarpInsns
	s.L1DAccesses += other.L1DAccesses
	s.L1DHits += other.L1DHits
	s.L1DMisses += other.L1DMisses
	s.L1DBypasses += other.L1DBypasses
	s.L1DEvictions += other.L1DEvictions
	s.L1DStalls += other.L1DStalls
	s.L1DTraffic += other.L1DTraffic
	s.VTAHits += other.VTAHits
	s.StoreAccesses += other.StoreAccesses
	s.L1DCompulsory += other.L1DCompulsory
	s.L2Accesses += other.L2Accesses
	s.L2Hits += other.L2Hits
	s.L2Misses += other.L2Misses
	s.DRAMReads += other.DRAMReads
	s.DRAMWrites += other.DRAMWrites
	s.ICNTFlits += other.ICNTFlits
	s.ICNTDataFlits += other.ICNTDataFlits
}

// CheckConservation verifies the fundamental accounting identity:
// every access is a hit, a serviced miss, or a bypass.
func (s *Stats) CheckConservation() error {
	if s.L1DHits+s.L1DMisses+s.L1DBypasses != s.L1DAccesses {
		return fmt.Errorf("stats: hits(%d)+misses(%d)+bypasses(%d) != accesses(%d)",
			s.L1DHits, s.L1DMisses, s.L1DBypasses, s.L1DAccesses)
	}
	if s.L1DTraffic != s.L1DHits+s.L1DMisses {
		return fmt.Errorf("stats: traffic(%d) != hits(%d)+misses(%d)",
			s.L1DTraffic, s.L1DHits, s.L1DMisses)
	}
	return nil
}

// String summarizes the run for CLI output.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d insns=%d IPC=%.3f\n", s.Cycles, s.Instructions, s.IPC())
	fmt.Fprintf(&b, "L1D: accesses=%d hits=%d misses=%d bypasses=%d hitrate=%.3f\n",
		s.L1DAccesses, s.L1DHits, s.L1DMisses, s.L1DBypasses, s.L1DHitRate())
	fmt.Fprintf(&b, "L1D: traffic=%d evictions=%d stalls=%d vta_hits=%d compulsory=%d\n",
		s.L1DTraffic, s.L1DEvictions, s.L1DStalls, s.VTAHits, s.L1DCompulsory)
	fmt.Fprintf(&b, "L2: accesses=%d hits=%d misses=%d\n", s.L2Accesses, s.L2Hits, s.L2Misses)
	fmt.Fprintf(&b, "DRAM: reads=%d writes=%d ICNT: flits=%d data_flits=%d",
		s.DRAMReads, s.DRAMWrites, s.ICNTFlits, s.ICNTDataFlits)
	return b.String()
}

// GeoMean returns the geometric mean of xs. Zero or negative entries are
// rejected with a NaN result because they indicate a broken series.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Normalize divides each value by the corresponding baseline value.
// Baseline zeros produce zeros (the series is then meaningless anyway but
// must not take down a whole harness run).
func Normalize(values, baseline []float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		if i < len(baseline) && baseline[i] != 0 {
			out[i] = v / baseline[i]
		}
	}
	return out
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Histogram is a bucketed counter keyed by int, used for reuse-distance
// distributions.
type Histogram struct {
	counts map[int]uint64
	total  uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]uint64)}
}

// Observe adds one observation of value v.
func (h *Histogram) Observe(v int) {
	h.counts[v]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the observations of exactly v.
func (h *Histogram) Count(v int) uint64 { return h.counts[v] }

// CountRange returns observations with lo <= v <= hi.
func (h *Histogram) CountRange(lo, hi int) uint64 {
	var n uint64
	for v, c := range h.counts {
		if v >= lo && v <= hi {
			n += c
		}
	}
	return n
}

// CountAtLeast returns observations with v >= lo.
func (h *Histogram) CountAtLeast(lo int) uint64 {
	var n uint64
	for v, c := range h.counts {
		if v >= lo {
			n += c
		}
	}
	return n
}

// Keys returns the observed values in ascending order.
func (h *Histogram) Keys() []int {
	keys := make([]int, 0, len(h.counts))
	for v := range h.counts {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	return keys
}

// Fractions returns the fraction of observations in each [lo,hi] bucket.
// The last bucket may use hi = math.MaxInt to mean "and above".
func (h *Histogram) Fractions(buckets [][2]int) []float64 {
	out := make([]float64, len(buckets))
	if h.total == 0 {
		return out
	}
	for i, b := range buckets {
		out[i] = float64(h.CountRange(b[0], b[1])) / float64(h.total)
	}
	return out
}
