package workloads

import (
	"sync"

	"repro/internal/addr"
	"repro/internal/prng"
	"repro/internal/trace"
)

// lineBytes is the cache-line size all generators target (Table 1).
const lineBytes = 128

// wordBytes is the per-lane element size (32-bit values).
const wordBytes = 4

// warpLanes is the warp width (Table 1).
const warpLanes = 32

// computeLatency is the pipeline latency of generated ALU instructions.
const computeLatency = 4

// layout hands out disjoint, line-aligned array regions in the simulated
// global address space.
type layout struct {
	next uint64
}

// array reserves a region of n cache lines and returns its base address.
func (l *layout) array(lines int) addr.Addr {
	base := l.next
	l.next += uint64(lines) * lineBytes
	// Guard gap so off-by-one neighbor accesses never alias regions.
	l.next += 8 * lineBytes
	return addr.Addr(base)
}

// wb builds one warp's instruction stream. It runs a generator's build
// closure in one of three modes, so the same closure serves eager
// materialization, shape discovery, and lazy chunked streaming:
//
//   - shape (shape=true): nothing is materialized; only the running
//     instruction count n, the lane-address count nlanes, and the
//     closure's own layout/PRNG side effects advance (gridSpec.shape).
//   - sized eager (chunk == nil, shape false): every instruction is
//     appended to instrs, which Kernel allocates at the warp's shaped
//     length, and every address slice is carved from slab, the warp's
//     one lane arena sized to its shaped lane count — capped, so an
//     append to one instruction's lanes can never write over the next
//     one's. A warp is two allocations, whatever its length.
//   - chunk (chunk != nil): only instructions whose index falls in
//     [skip, limit) are materialized, into the chunk's backing arrays;
//     everything else just advances n.
type wb struct {
	instrs []trace.Instr
	slab   []addr.Addr

	chunk       *trace.Chunk
	skip, limit int
	shape       bool
	n           int // instructions emitted so far (all modes)
	nlanes      int // lane addresses emitted so far (shape mode)
}

// emits reports whether the memory instruction being built, with k
// lanes, must be materialized. When it must not, the instruction only
// advances the stream — and in shape mode its lanes are counted.
func (b *wb) emits(k int) bool {
	if b.shape {
		b.n++
		b.nlanes += k
		return false
	}
	if b.chunk != nil && (b.n < b.skip || b.n >= b.limit) {
		b.n++
		return false
	}
	return true
}

// full reports that a chunk-mode build has emitted its window's last
// instruction: nothing the closure emits from here on is materialized,
// so its loops stop early. Every Fill restores the layout cursor from
// the warp's snapshot, and the shape pass runs closures in full, so
// stopping changes no window.
func (b *wb) full() bool { return b.chunk != nil && b.n >= b.limit }

// lanes returns an n-address slice for the instruction being built,
// capped so later appends can never scribble over a neighbor: carved
// from the chunk arena in chunk mode, from the warp's slab in eager
// mode.
func (b *wb) lanes(n int) []addr.Addr {
	if b.chunk != nil {
		start := len(b.chunk.Addrs)
		b.chunk.Addrs = append(b.chunk.Addrs, make([]addr.Addr, n)...)
		return b.chunk.Addrs[start:len(b.chunk.Addrs):len(b.chunk.Addrs)]
	}
	a := b.slab[:n:n]
	b.slab = b.slab[n:]
	return a
}

// push emits a materialized instruction and advances the stream.
func (b *wb) push(in trace.Instr) {
	if b.chunk != nil {
		b.chunk.Instrs = append(b.chunk.Instrs, in)
	} else {
		b.instrs = append(b.instrs, in)
	}
	b.n++
}

// compute appends n full-warp ALU instructions. Runs that fall outside
// the materialization window cost O(1), which makes chunked replay of
// compute-heavy kernels cheap.
func (b *wb) compute(pc uint32, n int) {
	if !b.shape && (b.chunk == nil || (b.n < b.limit && b.n+n > b.skip)) {
		lo, hi := b.n, b.n+n
		if b.chunk != nil {
			if lo < b.skip {
				lo = b.skip
			}
			if hi > b.limit {
				hi = b.limit
			}
		}
		for i := lo; i < hi; i++ {
			if b.chunk != nil {
				b.chunk.Instrs = append(b.chunk.Instrs, trace.NewCompute(pc, computeLatency, warpLanes))
			} else {
				b.instrs = append(b.instrs, trace.NewCompute(pc, computeLatency, warpLanes))
			}
		}
	}
	b.n += n
}

// loadVec appends a fully coalesced load: 32 lanes reading consecutive
// words starting at base (one cache line when line-aligned).
func (b *wb) loadVec(pc uint32, base addr.Addr) {
	if !b.emits(warpLanes) {
		return
	}
	addrs := b.lanes(warpLanes)
	for i := range addrs {
		addrs[i] = base + addr.Addr(i*wordBytes)
	}
	b.push(trace.NewLoad(pc, addrs))
}

// storeVec appends a fully coalesced store of one line.
func (b *wb) storeVec(pc uint32, base addr.Addr) {
	if !b.emits(warpLanes) {
		return
	}
	addrs := b.lanes(warpLanes)
	for i := range addrs {
		addrs[i] = base + addr.Addr(i*wordBytes)
	}
	b.push(trace.NewStore(pc, addrs))
}

// loadSpan appends a load whose 32 lanes stride evenly across `lines`
// consecutive cache lines starting at base — the partially coalesced
// access pattern of column-major or structure-of-arrays code.
func (b *wb) loadSpan(pc uint32, base addr.Addr, lines int) {
	if !b.emits(warpLanes) {
		return
	}
	if lines < 1 {
		lines = 1
	}
	if lines > warpLanes {
		lines = warpLanes
	}
	addrs := b.lanes(warpLanes)
	for i := range addrs {
		line := i * lines / warpLanes
		within := (i % (warpLanes / lines)) * wordBytes
		addrs[i] = base + addr.Addr(line*lineBytes+within)
	}
	b.push(trace.NewLoad(pc, addrs))
}

// loadGather appends a load with one lane per given line address — the
// fully diverged pattern of pointer-chasing and hash-table code.
func (b *wb) loadGather(pc uint32, lines []addr.Addr) {
	if !b.emits(len(lines)) {
		return
	}
	addrs := b.lanes(len(lines))
	copy(addrs, lines)
	b.push(trace.NewLoad(pc, addrs))
}

// storeGather appends a store with one lane per given line address.
func (b *wb) storeGather(pc uint32, lines []addr.Addr) {
	if !b.emits(len(lines)) {
		return
	}
	addrs := b.lanes(len(lines))
	copy(addrs, lines)
	b.push(trace.NewStore(pc, addrs))
}

// gridSpec is a generator's deferred grid: the launch shape plus the
// per-warp build closure, with the layout allocator the closure draws
// per-warp regions from. One gridSpec instance is consumed exactly once
// — eagerly via Kernel or lazily via newGridStream — because builds
// advance the layout cursor.
type gridSpec struct {
	name   string
	blocks int
	warps  int // warps per block
	mem    *layout
	build  func(b *wb, block, warp int)
}

// shape runs warp (block, warp)'s closure in shape mode from the layout
// cursor's current position, leaving the cursor after the warp, and
// returns the warp's instruction and lane-address counts. It is the one
// shape pass: Kernel sizes each warp with it, and gridStream learns
// each warp's layout snapshot and length from it.
func (g gridSpec) shape(block, warp int) (n, lanes int) {
	b := &wb{shape: true}
	g.build(b, block, warp)
	return b.n, b.nlanes
}

// Kernel materializes the whole grid eagerly — byte-identical to what
// the pre-streaming generators produced. Each warp is shaped first,
// then the layout cursor is rewound to the warp's snapshot and the warp
// is built at its final size: its instructions in one allocation, all
// its lane addresses in another.
func (g gridSpec) Kernel() *trace.Kernel {
	k := &trace.Kernel{Name: g.name, Blocks: make([]*trace.Block, g.blocks)}
	for bi := range k.Blocks {
		blk := &trace.Block{Warps: make([]*trace.WarpTrace, g.warps)}
		for wi := range blk.Warps {
			snap := g.mem.next
			n, lanes := g.shape(bi, wi)
			g.mem.next = snap
			b := &wb{instrs: make([]trace.Instr, 0, n), slab: make([]addr.Addr, lanes)}
			g.build(b, bi, wi)
			blk.Warps[wi] = &trace.WarpTrace{Instrs: b.instrs}
		}
		k.Blocks[bi] = blk
	}
	return k
}

// gridStream serves a gridSpec lazily as a trace.Stream. Generators
// allocate per-warp regions *inside* their build closures, so a warp's
// addresses depend on every earlier warp's allocations; the stream
// therefore keeps an incremental shape pass — one layout-cursor
// snapshot per warp, extended on demand — and every refill restores
// the warp's snapshot and replays its closure in chunk mode, skipping
// instructions before the requested window and stopping at its end
// (wb.full). Replay work per refill is the closure run up to the
// window's end (with O(1) skipped compute runs), traded for never
// materializing the grid. Fill holds the stream's mutex throughout, so
// concurrent fills of different windows take turns.
type gridStream struct {
	g   gridSpec
	key string

	mu     sync.Mutex
	snaps  []uint64 // snaps[i] = layout cursor before building warp i
	counts []int    // counts[i] = instruction count of shaped warp i
}

// newGridStream wraps g; key is the stream's cache identity, its
// SpecKey.
func newGridStream(g gridSpec, key string) *gridStream {
	return &gridStream{g: g, key: key, snaps: []uint64{g.mem.next}}
}

func (s *gridStream) Name() string        { return s.g.name }
func (s *gridStream) Blocks() int         { return s.g.blocks }
func (s *gridStream) Warps(block int) int { return s.g.warps }
func (s *gridStream) SpecKey() string     { return s.key }

// ensureShaped extends the shape pass through global warp index idx,
// learning each warp's layout snapshot and instruction count.
func (s *gridStream) ensureShaped(idx int) {
	for len(s.counts) <= idx {
		i := len(s.counts)
		s.g.mem.next = s.snaps[i]
		n, _ := s.g.shape(i/s.g.warps, i%s.g.warps)
		s.counts = append(s.counts, n)
		s.snaps = append(s.snaps, s.g.mem.next)
	}
}

func (s *gridStream) Fill(block, warp, start int, c *trace.Chunk) ([]trace.Instr, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := block*s.g.warps + warp
	s.ensureShaped(idx)
	window := cap(c.Instrs)
	if window == 0 {
		window = trace.DefaultChunkInstrs
	}
	limit := start + window
	if n := s.counts[idx]; limit > n {
		limit = n
	}
	s.g.mem.next = s.snaps[idx]
	b := &wb{chunk: c, skip: start, limit: limit}
	s.g.build(b, block, warp)
	return c.Instrs, limit == s.counts[idx], true
}

// seedFor derives a deterministic per-(benchmark, block, warp) PRNG.
func seedFor(app uint64, block, warp int) *prng.Source {
	return prng.New(app*1_000_003 + uint64(block)*8_191 + uint64(warp)*131 + 17)
}

// lineAt returns the address of the i-th line of a region.
func lineAt(base addr.Addr, i int) addr.Addr {
	return base + addr.Addr(i*lineBytes)
}
