// Package rdd implements the paper's reuse-distance analysis (§3): a RD
// is the number of accesses to a cache set between two accesses to the
// same cache line within that set, counting the re-reference itself
// (Figure 2: the sequence A0, A1, A2, A0 gives A0 a RD of 3). It holds
// one walk of a kernel's instruction stream, in the block/warp
// interleaving the simulator dispatches (PerSM, ReplaySM), and its three
// consumers: the RD tracker behind the program-level (Fig. 3) and
// per-instruction (Fig. 7) distributions, the LRU replay of the Fig. 4
// associativity study, and a registered L1D scheme with ideal memory
// behind it (L1DReplay, the Fig. 9 trace of the DLP prediction table).
package rdd

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
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
	slices.Sort(out)
	return out
}

// mapperFor returns the set/tag mapper of a cache geometry.
func mapperFor(geom config.CacheGeom) *addr.Mapper {
	kind := addr.LinearIndex
	if geom.Hashed {
		kind = addr.HashIndex
	}
	return addr.MustMapper(geom.LineSize, geom.Sets, kind)
}

// ProfileKernel walks the kernel (ReplaySM, each SM's share of the
// blocks as PerSM deals them) against numSMs independent caches of the
// given geometry and measures the reuse distance of every line access.
func ProfileKernel(k *trace.Kernel, numSMs int, geom config.CacheGeom) *Profile {
	prof := &Profile{
		Global: stats.NewHistogram(),
		PerPC:  make(map[uint32]*stats.Histogram),
	}
	eachSM(k, numSMs, geom.LineSize, func() Visit {
		m := mapperFor(geom)
		setCounter := make([]uint64, geom.Sets)
		lastTouch := make(map[uint64]uint64) // tag -> its set's counter at its last access
		return func(in *trace.Instr, lines []addr.Addr) bool {
			for _, a := range lines {
				set, tag := m.Set(a), m.Tag(a)
				setCounter[set]++
				now := setCounter[set]
				prof.Accesses++
				if last, seen := lastTouch[tag]; seen {
					rd := int(now - last)
					prof.Reuses++
					prof.Global.Observe(rd)
					h, ok := prof.PerPC[in.PC]
					if !ok {
						h = stats.NewHistogram()
						prof.PerPC[in.PC] = h
					}
					h.Observe(rd)
				}
				lastTouch[tag] = now
			}
			return true
		}
	})
	return prof
}

// lruSet is a small ordered-tag LRU set for the Fig. 4 replay.
type lruSet struct {
	tags []uint64 // index 0 is MRU
}

func (s *lruSet) touch(tag uint64, ways int) (hit bool) {
	i := slices.Index(s.tags, tag)
	if hit = i >= 0; !hit { // the new tag takes a fresh way, or the LRU one
		if len(s.tags) < ways {
			s.tags = append(s.tags, 0)
		}
		i = len(s.tags) - 1
	}
	copy(s.tags[1:i+1], s.tags[:i])
	s.tags[0] = tag
	return hit
}

// ReuseMissRate replays the stream through LRU caches of the given
// geometry and returns the miss rate over non-compulsory accesses only
// (Fig. 4 excludes compulsory misses).
func ReuseMissRate(k *trace.Kernel, numSMs int, geom config.CacheGeom) float64 {
	var reuses, reuseMisses uint64
	eachSM(k, numSMs, geom.LineSize, func() Visit {
		m := mapperFor(geom)
		sets := make([]lruSet, geom.Sets)
		seen := make(map[uint64]bool)
		return func(_ *trace.Instr, lines []addr.Addr) bool {
			for _, a := range lines {
				tag := m.Tag(a)
				hit := sets[m.Set(a)].touch(tag, geom.Ways)
				if seen[tag] {
					reuses++
					if !hit {
						reuseMisses++
					}
				}
				seen[tag] = true
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

// eachSM walks each SM that got a block (PerSM), coalesced at
// lineSize, through a fresh visit function from newSM — one cache view
// per SM.
func eachSM(k *trace.Kernel, numSMs, lineSize int, newSM func() Visit) {
	for _, blocks := range PerSM(k, numSMs) {
		if len(blocks) > 0 {
			ReplaySM(blocks, lineSize, newSM())
		}
	}
}

// Visit is handed one instruction of a walk and the distinct lines it
// touches (none for a compute instruction); false stops the walk. The
// lines are the walk's scratch, valid only during the call.
type Visit func(in *trace.Instr, lines []addr.Addr) bool

// ReplaySM walks one SM's blocks in dispatch order and hands visit every
// instruction of every warp exactly once, each warp's in program order,
// with a memory instruction's lines of lineSize bytes, until the blocks
// are exhausted or visit returns false. Within a block the warps take
// turns, approximating fine-grained multithreaded issue: a turn runs
// through the warp's next memory instruction, and after its last one to
// the warp's end. The cursors and the coalescing output are reused, so
// the walk's allocations do not grow with the stream's length.
func ReplaySM(blocks []*trace.Block, lineSize int, visit Visit) {
	var (
		next  []int // per warp: the next instruction to visit
		lines []addr.Addr
	)
	for _, b := range blocks {
		next = slices.Grow(next[:0], len(b.Warps))[:len(b.Warps)]
		clear(next)
		for left := len(b.Warps); left > 0; {
			left = 0
			for wi, w := range b.Warps {
				n, end := len(w.Instrs), nextMem(w, next[wi])+1
				if nextMem(w, end) >= n {
					end = n
				}
				for ; next[wi] < end; next[wi]++ {
					in := &w.Instrs[next[wi]]
					if lines = in.AppendCoalescedLines(lines[:0], lineSize); !visit(in, lines) {
						return
					}
				}
				if end < n {
					left++
				}
			}
		}
	}
}

// nextMem returns the index of the next memory instruction at or after
// i, or i itself once past the warp's end.
func nextMem(w *trace.WarpTrace, i int) int {
	for i < len(w.Instrs) && w.Instrs[i].Kind == trace.Compute {
		i++
	}
	return i
}

// L1DReplay drives one SM's L1D, under any registered scheme, through
// the walk with every fetch answered the moment it is sent. Each
// instruction's lanes are noted before its accesses, as the SM notes
// them at issue, so a scheme's samples close at the instruction cap
// (config.SampleInsnCap) as well as at the access count.
//
// The replay equals the timed L1D whenever that cache has at most one
// access in flight: one warp per SM and one line per memory
// instruction. In any other case it is a zero-latency approximation of
// the timed run, which interleaves warps by readiness and overlaps
// their misses.
type L1DReplay struct {
	*core.L1D
	lineSize int
	now      uint64 // one cycle, and one request ID, per access
}

// NewL1DReplay builds a fresh L1D of cfg under pol for one replay.
func NewL1DReplay(cfg *config.Config, pol config.Policy) *L1DReplay {
	return &L1DReplay{L1D: core.NewL1D(cfg, pol, func(*mem.Request) {}), lineSize: cfg.L1D.LineSize}
}

// Replay walks one SM's blocks (PerSM) through the cache and calls after
// once after every event — an instruction's note, or one line's access
// with the answer to its fetch — until the blocks are exhausted or after
// returns false. A stalled access is an error, not a retry: with every
// fetch answered at once nothing is reserved or queued when the next
// access arrives, and no registered scheme stalls for a victim its
// filter refused (policy.Spec.check).
func (r *L1DReplay) Replay(blocks []*trace.Block, after func() bool) error {
	var err error
	ReplaySM(blocks, r.lineSize, func(in *trace.Instr, lines []addr.Addr) bool {
		r.NoteInstructions(uint64(in.ActiveLanes))
		if !after() {
			return false
		}
		for _, line := range lines {
			r.now++
			r.Tick(r.now)
			req := &mem.Request{ID: r.now, Addr: line, PC: in.PC, InsnID: addr.HashPC(in.PC), Store: in.Kind == trace.Store}
			if r.Access(req) == mem.OutcomeStall {
				err = fmt.Errorf("rdd: L1D replay: access %d (pc %d, line %#x) stalled with every fetch answered", r.now, in.PC, uint64(line))
				return false
			}
			for o := r.PopOutgoing(); o != nil; o = r.PopOutgoing() {
				if !o.Store {
					r.OnResponse(o)
				}
			}
			if !after() {
				return false
			}
		}
		return true
	})
	return err
}
