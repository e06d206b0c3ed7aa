// Package rdd implements the paper's reuse-distance analysis (§3): a RD
// is the number of accesses to a cache set between two accesses to the
// same cache line within that set, counting the re-reference itself
// (Figure 2: the sequence A0, A1, A2, A0 gives A0 a RD of 3). The
// profiler replays a kernel's memory stream in the same block/warp
// interleaving the simulator uses and produces program-level (Fig. 3) and
// per-instruction (Fig. 7) RD distributions, plus the associativity
// sensitivity study of Fig. 4 via an LRU cache replay. The per-SM walk
// itself (PerSM, ReplaySM) is exported for other single-cache replays,
// such as the Fig. 9 trace of the DLP prediction table.
package rdd

import (
	"math"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Buckets are the paper's four RD ranges (1–4, 5–8, 9–64, >64).
var Buckets = [][2]int{{1, 4}, {5, 8}, {9, 64}, {65, math.MaxInt}}

// BucketLabels name the ranges as in Figure 3.
var BucketLabels = []string{"RD 1~4", "RD 5~8", "RD 9~64", "RD >65"}

// Profile is the result of replaying one kernel.
type Profile struct {
	Global   *stats.Histogram            // all reuse distances
	PerPC    map[uint32]*stats.Histogram // RDs keyed by the re-referencing PC
	Accesses uint64                      // line accesses replayed
	Reuses   uint64                      // non-compulsory accesses
}

// GlobalFractions returns the Fig. 3 bucket fractions.
func (p *Profile) GlobalFractions() []float64 { return p.Global.Fractions(Buckets) }

// PCFractions returns the Fig. 7 bucket fractions for one instruction.
func (p *Profile) PCFractions(pc uint32) []float64 {
	h, ok := p.PerPC[pc]
	if !ok {
		return make([]float64, len(Buckets))
	}
	return h.Fractions(Buckets)
}

// PCs returns the profiled instruction PCs in ascending order.
func (p *Profile) PCs() []uint32 {
	out := make([]uint32, 0, len(p.PerPC))
	for pc := range p.PerPC {
		out = append(out, pc)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// tracker measures RDs for one cache (one SM's L1D view).
type tracker struct {
	mapper     *addr.Mapper
	setCounter []uint64
	lastTouch  []map[uint64]uint64 // per set: tag -> counter at last access
	prof       *Profile
}

// mapperFor returns the set/tag mapper of a cache geometry.
func mapperFor(geom config.CacheGeom) *addr.Mapper {
	kind := addr.LinearIndex
	if geom.Hashed {
		kind = addr.HashIndex
	}
	return addr.MustMapper(geom.LineSize, geom.Sets, kind)
}

func newTracker(geom config.CacheGeom, prof *Profile) *tracker {
	t := &tracker{
		mapper:     mapperFor(geom),
		setCounter: make([]uint64, geom.Sets),
		lastTouch:  make([]map[uint64]uint64, geom.Sets),
		prof:       prof,
	}
	for i := range t.lastTouch {
		t.lastTouch[i] = make(map[uint64]uint64)
	}
	return t
}

// access replays one line access issued by instruction in; it always
// asks for the next.
func (t *tracker) access(a addr.Addr, in *trace.Instr) bool {
	set := t.mapper.Set(a)
	tag := t.mapper.Tag(a)
	t.setCounter[set]++
	now := t.setCounter[set]
	t.prof.Accesses++
	if last, seen := t.lastTouch[set][tag]; seen {
		rd := int(now - last)
		t.prof.Reuses++
		t.prof.Global.Observe(rd)
		h, ok := t.prof.PerPC[in.PC]
		if !ok {
			h = stats.NewHistogram()
			t.prof.PerPC[in.PC] = h
		}
		h.Observe(rd)
	}
	t.lastTouch[set][tag] = now
	return true
}

// ProfileKernel replays the kernel's memory stream against numSMs
// independent caches of the given geometry, distributing blocks
// round-robin and interleaving warp memory instructions round-robin
// within each SM, mirroring the simulator's dispatch.
func ProfileKernel(k *trace.Kernel, numSMs int, geom config.CacheGeom) *Profile {
	prof := &Profile{
		Global: stats.NewHistogram(),
		PerPC:  make(map[uint32]*stats.Histogram),
	}
	eachSM(k, numSMs, geom.LineSize, func() func(addr.Addr, *trace.Instr) bool {
		return newTracker(geom, prof).access
	})
	return prof
}

// lruSet is a small ordered-tag LRU set for the Fig. 4 replay.
type lruSet struct {
	tags []uint64 // index 0 is MRU
}

func (s *lruSet) touch(tag uint64, ways int) (hit bool) {
	for i, t := range s.tags {
		if t == tag {
			copy(s.tags[1:i+1], s.tags[:i])
			s.tags[0] = tag
			return true
		}
	}
	s.tags = append(s.tags, 0)
	copy(s.tags[1:], s.tags)
	s.tags[0] = tag
	if len(s.tags) > ways {
		s.tags = s.tags[:ways]
	}
	return false
}

// ReuseMissRate replays the stream through LRU caches of the given
// geometry and returns the miss rate over non-compulsory accesses only
// (Fig. 4 excludes compulsory misses).
func ReuseMissRate(k *trace.Kernel, numSMs int, geom config.CacheGeom) float64 {
	var reuses, reuseMisses uint64
	eachSM(k, numSMs, geom.LineSize, func() func(addr.Addr, *trace.Instr) bool {
		m := mapperFor(geom)
		sets := make([]lruSet, geom.Sets)
		seen := make(map[uint64]bool)
		return func(a addr.Addr, _ *trace.Instr) bool {
			tag := m.Tag(a)
			first := !seen[tag]
			seen[tag] = true
			hit := sets[m.Set(a)].touch(tag, geom.Ways)
			if !first {
				reuses++
				if !hit {
					reuseMisses++
				}
			}
			return true
		}
	})
	return stats.Ratio(reuseMisses, reuses)
}

// PerSM distributes the kernel's blocks round-robin over numSMs SMs,
// mirroring the simulator's dispatch: entry i is SM i's share, in
// dispatch order.
func PerSM(k *trace.Kernel, numSMs int) [][]*trace.Block {
	perSM := make([][]*trace.Block, numSMs)
	for i, b := range k.Blocks {
		perSM[i%numSMs] = append(perSM[i%numSMs], b)
	}
	return perSM
}

// eachSM replays each SM that got a block (PerSM), coalesced at
// lineSize, through a fresh access function from newSM — one cache view
// per SM.
func eachSM(k *trace.Kernel, numSMs, lineSize int, newSM func() func(addr.Addr, *trace.Instr) bool) {
	for _, blocks := range PerSM(k, numSMs) {
		if len(blocks) > 0 {
			ReplaySM(blocks, lineSize, newSM())
		}
	}
}

// ReplaySM walks one SM's blocks in dispatch order, invoking access for
// every line of lineSize bytes a memory instruction touches, until the
// blocks are exhausted or access returns false. Within a block the
// warps take turns, one memory instruction each, approximating
// fine-grained multithreaded issue. The warp cursors and the coalescing
// output are reused across blocks and instructions, so the walk's
// allocations do not grow with the stream's length.
func ReplaySM(blocks []*trace.Block, lineSize int, access func(line addr.Addr, in *trace.Instr) bool) {
	var (
		ptrs  []int
		lines []addr.Addr
	)
	for _, b := range blocks {
		if cap(ptrs) < len(b.Warps) {
			ptrs = make([]int, len(b.Warps))
		}
		ptrs = ptrs[:len(b.Warps)]
		remaining := 0
		for wi, w := range b.Warps {
			ptrs[wi] = nextMem(w, 0)
			if ptrs[wi] < len(w.Instrs) {
				remaining++
			}
		}
		for remaining > 0 {
			for wi, w := range b.Warps {
				p := ptrs[wi]
				if p >= len(w.Instrs) {
					continue
				}
				in := &w.Instrs[p]
				lines = in.AppendCoalescedLines(lines[:0], lineSize)
				for _, line := range lines {
					if !access(line, in) {
						return
					}
				}
				ptrs[wi] = nextMem(w, p+1)
				if ptrs[wi] >= len(w.Instrs) {
					remaining--
				}
			}
		}
	}
}

// nextMem returns the index of the next memory instruction at or after i.
func nextMem(w *trace.WarpTrace, i int) int {
	for ; i < len(w.Instrs); i++ {
		k := w.Instrs[i].Kind
		if k == trace.Load || k == trace.Store {
			return i
		}
	}
	return i
}
