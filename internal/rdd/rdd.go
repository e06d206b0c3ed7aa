// Package rdd implements the paper's reuse-distance analysis (§3): a RD
// is the number of accesses to a cache set between two accesses to the
// same cache line within that set, counting the re-reference itself
// (Figure 2: the sequence A0, A1, A2, A0 gives A0 a RD of 3). The
// profiler replays a kernel's memory stream in the same block/warp
// interleaving the simulator uses and produces program-level (Fig. 3) and
// per-instruction (Fig. 7) RD distributions, plus the associativity
// sensitivity study of Fig. 4 via an LRU cache replay.
package rdd

import (
	"math"
	"sync"

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

func newTracker(geom config.CacheGeom, prof *Profile) *tracker {
	kind := addr.LinearIndex
	if geom.Hashed {
		kind = addr.HashIndex
	}
	m := addr.MustMapper(geom.LineSize, geom.Sets, kind)
	t := &tracker{
		mapper:     m,
		setCounter: make([]uint64, geom.Sets),
		lastTouch:  make([]map[uint64]uint64, geom.Sets),
		prof:       prof,
	}
	for i := range t.lastTouch {
		t.lastTouch[i] = make(map[uint64]uint64)
	}
	return t
}

// access replays one line access issued by instruction pc.
func (t *tracker) access(a addr.Addr, pc uint32) {
	set := t.mapper.Set(a)
	tag := t.mapper.Tag(a)
	t.setCounter[set]++
	now := t.setCounter[set]
	t.prof.Accesses++
	if last, seen := t.lastTouch[set][tag]; seen {
		rd := int(now - last)
		t.prof.Reuses++
		t.prof.Global.Observe(rd)
		h, ok := t.prof.PerPC[pc]
		if !ok {
			h = stats.NewHistogram()
			t.prof.PerPC[pc] = h
		}
		h.Observe(rd)
	}
	t.lastTouch[set][tag] = now
}

// ProfileKernel replays the kernel's memory stream against numSMs
// independent caches of the given geometry, distributing blocks
// round-robin and interleaving warp memory instructions round-robin
// within each SM, mirroring the simulator's dispatch.
func ProfileKernel(k *trace.Kernel, numSMs int, geom config.CacheGeom) *Profile {
	return ProfileKernelCores(k, numSMs, geom, 1)
}

// ProfileKernelCores is ProfileKernel on a pool of cores goroutines.
// Each SM's replay is independent (its own cache view, its own
// counters), so SMs are striped across workers, each worker fills a
// private Profile, and the shards merge afterwards. Every merged
// counter is a sum, so the result is identical to the serial profile
// at any core count.
func ProfileKernelCores(k *trace.Kernel, numSMs int, geom config.CacheGeom, cores int) *Profile {
	shards := shardSMs(k, numSMs, cores, func() *Profile {
		return &Profile{
			Global: stats.NewHistogram(),
			PerPC:  make(map[uint32]*stats.Histogram),
		}
	}, func(prof *Profile, sm int) func(addr.Addr, uint32) {
		t := newTracker(geom, prof)
		return t.access
	})
	prof := shards[0]
	for _, sh := range shards[1:] {
		prof.Global.Merge(sh.Global)
		for pc, h := range sh.PerPC {
			if have, ok := prof.PerPC[pc]; ok {
				have.Merge(h)
			} else {
				prof.PerPC[pc] = h
			}
		}
		prof.Accesses += sh.Accesses
		prof.Reuses += sh.Reuses
	}
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

// missShard counts one worker's share of the Fig. 4 LRU replay.
type missShard struct {
	reuses      uint64
	reuseMisses uint64
}

// ReuseMissRate replays the stream through LRU caches of the given
// geometry and returns the miss rate over non-compulsory accesses only
// (Fig. 4 excludes compulsory misses).
func ReuseMissRate(k *trace.Kernel, numSMs int, geom config.CacheGeom) float64 {
	return ReuseMissRateCores(k, numSMs, geom, 1)
}

// ReuseMissRateCores is ReuseMissRate with the SMs striped across cores
// goroutines; the per-shard counters sum to the serial result exactly.
func ReuseMissRateCores(k *trace.Kernel, numSMs int, geom config.CacheGeom, cores int) float64 {
	kind := addr.LinearIndex
	if geom.Hashed {
		kind = addr.HashIndex
	}
	shards := shardSMs(k, numSMs, cores, func() *missShard { return &missShard{} },
		func(ms *missShard, sm int) func(addr.Addr, uint32) {
			m := addr.MustMapper(geom.LineSize, geom.Sets, kind)
			sets := make([]lruSet, geom.Sets)
			seen := make(map[uint64]bool)
			return func(a addr.Addr, pc uint32) {
				tag := m.Tag(a)
				first := !seen[tag]
				seen[tag] = true
				hit := sets[m.Set(a)].touch(tag, geom.Ways)
				if first {
					return
				}
				ms.reuses++
				if !hit {
					ms.reuseMisses++
				}
			}
		})
	var reuses, reuseMisses uint64
	for _, ms := range shards {
		reuses += ms.reuses
		reuseMisses += ms.reuseMisses
	}
	if reuses == 0 {
		return 0
	}
	return float64(reuseMisses) / float64(reuses)
}

// replayScratch holds one worker's reusable replay buffers: the
// per-block warp cursors and the coalescing output. Reusing them is
// what keeps the replay's allocation count proportional to the cache
// state (SMs, sets, distinct lines) instead of the stream length.
type replayScratch struct {
	ptrs  []int
	lines []addr.Addr
}

// shardSMs distributes the kernel's blocks round-robin over numSMs SMs
// (mirroring the simulator's dispatch), stripes the SMs across
// min(cores, numSMs) workers, and replays each SM through an access
// function built by sink over the worker's shard. Shards are private
// to their worker — sink is called on the worker goroutine — so the
// replay is race-free without locks; callers fold the shards, whose
// counters are order-independent sums.
func shardSMs[S any](k *trace.Kernel, numSMs, cores int,
	newShard func() S, sink func(shard S, sm int) func(addr.Addr, uint32)) []S {
	perSM := make([][]*trace.Block, numSMs)
	for i, b := range k.Blocks {
		perSM[i%numSMs] = append(perSM[i%numSMs], b)
	}
	if cores > numSMs {
		cores = numSMs
	}
	if cores < 1 {
		cores = 1
	}
	shards := make([]S, cores)
	work := func(w int) {
		shards[w] = newShard()
		var sc replayScratch
		for sm := w; sm < numSMs; sm += cores {
			if len(perSM[sm]) == 0 {
				continue
			}
			replaySM(perSM[sm], sink(shards[w], sm), &sc)
		}
	}
	if cores == 1 {
		work(0)
		return shards
	}
	var wg sync.WaitGroup
	for w := 0; w < cores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	return shards
}

// replaySM walks one SM's blocks in dispatch order, invoking access for
// every coalesced line.
func replaySM(blocks []*trace.Block, access func(addr.Addr, uint32), sc *replayScratch) {
	const lineSize = 128
	for _, b := range blocks {
		// Round-robin one memory instruction per warp per turn,
		// approximating fine-grained multithreaded issue.
		if cap(sc.ptrs) < len(b.Warps) {
			sc.ptrs = make([]int, len(b.Warps))
		}
		ptrs := sc.ptrs[:len(b.Warps)]
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
				sc.lines = in.AppendCoalescedLines(sc.lines[:0], lineSize)
				for _, line := range sc.lines {
					access(line, in.PC)
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
