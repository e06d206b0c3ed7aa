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
//   - eager (zero value): every instruction is appended to instrs with
//     freshly allocated address slices — the original behavior, byte
//     for byte.
//   - shape (shape=true): nothing is materialized; only the running
//     instruction count n (and the closure's own layout/PRNG side
//     effects) advance.
//   - chunk (chunk != nil): only instructions whose index falls in
//     [skip, limit) are materialized, into the chunk's backing arrays;
//     everything else just advances n.
type wb struct {
	instrs []trace.Instr

	chunk       *trace.Chunk
	skip, limit int
	shape       bool
	n           int // instructions emitted so far (all modes)
}

// want reports whether the current instruction must be materialized.
func (b *wb) want() bool {
	if b.shape {
		return false
	}
	if b.chunk != nil {
		return b.n >= b.skip && b.n < b.limit
	}
	return true
}

// lanes returns an n-address slice for the instruction being built:
// carved from the chunk arena in chunk mode (capped so later appends
// can never scribble over it), freshly allocated in eager mode.
func (b *wb) lanes(n int) []addr.Addr {
	if b.chunk != nil {
		start := len(b.chunk.Addrs)
		b.chunk.Addrs = append(b.chunk.Addrs, make([]addr.Addr, n)...)
		return b.chunk.Addrs[start:len(b.chunk.Addrs):len(b.chunk.Addrs)]
	}
	return make([]addr.Addr, n)
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
	if !b.want() {
		b.n++
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
	if !b.want() {
		b.n++
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
	if !b.want() {
		b.n++
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
	if !b.want() {
		b.n++
		return
	}
	addrs := b.lanes(len(lines))
	copy(addrs, lines)
	b.push(trace.NewLoad(pc, addrs))
}

// storeGather appends a store with one lane per given line address.
func (b *wb) storeGather(pc uint32, lines []addr.Addr) {
	if !b.want() {
		b.n++
		return
	}
	addrs := b.lanes(len(lines))
	copy(addrs, lines)
	b.push(trace.NewStore(pc, addrs))
}

// trace finalizes the warp (eager mode).
func (b *wb) trace() *trace.WarpTrace {
	return &trace.WarpTrace{Instrs: b.instrs}
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

// Kernel materializes the whole grid eagerly — byte-identical to what
// the pre-streaming generators produced.
func (g gridSpec) Kernel() *trace.Kernel {
	k := &trace.Kernel{Name: g.name}
	for bi := 0; bi < g.blocks; bi++ {
		blk := &trace.Block{}
		for wi := 0; wi < g.warps; wi++ {
			b := &wb{}
			g.build(b, bi, wi)
			blk.Warps = append(blk.Warps, b.trace())
		}
		k.Blocks = append(k.Blocks, blk)
	}
	return k
}

// grid assembles blocks x warpsPerBlock warps, where build(b, block,
// warp) fills each warp's stream.
func grid(name string, blocks, warpsPerBlock int, build func(b *wb, block, warp int)) *trace.Kernel {
	return gridSpec{name: name, blocks: blocks, warps: warpsPerBlock, build: build}.Kernel()
}

// gridStream serves a gridSpec lazily as a trace.Stream. Generators
// allocate per-warp regions *inside* their build closures, so a warp's
// addresses depend on every earlier warp's allocations; the stream
// therefore keeps an incremental shape pass — one layout-cursor
// snapshot per warp, extended on demand — and every refill restores
// the warp's snapshot and replays its closure in chunk mode, skipping
// instructions outside the requested window. Replay work per refill is
// one closure run (with O(1) skipped compute runs), traded for never
// materializing the grid.
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
	s := &gridStream{g: g, key: key}
	if g.mem == nil {
		s.g.mem = &layout{}
	}
	s.snaps = append(s.snaps, s.g.mem.next)
	return s
}

func (s *gridStream) Name() string        { return s.g.name }
func (s *gridStream) Blocks() int         { return s.g.blocks }
func (s *gridStream) Warps(block int) int { return s.g.warps }
func (s *gridStream) SpecKey() string     { return s.key }

// ensureShaped extends the shape pass through global warp index idx,
// running build closures in shape mode (layout and PRNG side effects
// only) to learn each warp's layout snapshot and instruction count.
func (s *gridStream) ensureShaped(idx int) {
	for len(s.counts) <= idx {
		i := len(s.counts)
		s.g.mem.next = s.snaps[i]
		b := &wb{shape: true}
		s.g.build(b, i/s.g.warps, i%s.g.warps)
		s.counts = append(s.counts, b.n)
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
