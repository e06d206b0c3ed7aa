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
//
// A builder owns its layout cursor, mem: the closure allocates its
// per-warp regions through array, starting from the cursor the shape
// pass recorded before the warp. Nothing a build writes is shared, so
// warps can be built in any order and on any goroutine.
type wb struct {
	instrs []trace.Instr
	slab   []addr.Addr
	mem    layout

	chunk       *trace.Chunk
	skip, limit int
	shape       bool
	n           int // instructions emitted so far (all modes)
	nlanes      int // lane addresses emitted so far (shape mode)
}

// array reserves a per-warp region of n cache lines from the builder's
// layout cursor.
func (b *wb) array(lines int) addr.Addr { return b.mem.array(lines) }

// materializes reports, without advancing the stream, whether the next
// instruction will be materialized. A closure asks it to skip drawing
// the lanes of an instruction that will not be; the emit that follows
// still advances the stream and, in shape mode, counts the lanes.
func (b *wb) materializes() bool {
	return !b.shape && (b.chunk == nil || (b.n >= b.skip && b.n < b.limit))
}

// emits reports whether the memory instruction being built, with k
// lanes, must be materialized. When it must not, the instruction only
// advances the stream — and in shape mode its lanes are counted.
func (b *wb) emits(k int) bool {
	if b.materializes() {
		return true
	}
	b.n++
	if b.shape {
		b.nlanes += k
	}
	return false
}

// full reports that a chunk-mode build has emitted its window's last
// instruction: nothing the closure emits from here on is materialized,
// so its loops stop early. Every Fill starts a builder of its own at
// the warp's layout snapshot, and the shape pass runs closures in
// full, so stopping changes no window.
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

// gridSpec is a generator's deferred grid: the launch shape, the
// per-warp build closure, and mem, the layout cursor after the regions
// the generator allocated while constructing the grid (shared bins,
// edge lists, per-block arrays). Warp 0's builder starts there; each
// later warp starts where the one before it left the cursor. Building
// changes nothing in the gridSpec, so one instance can be materialized
// (Kernel) or streamed (newGridStream) any number of times.
type gridSpec struct {
	name   string
	blocks int
	warps  int // warps per block
	mem    layout
	build  func(b *wb, block, warp int)
}

// warpShape is what the shape pass learns of one warp: the layout
// cursor before it, and its instruction and lane-address counts.
type warpShape struct {
	at       uint64
	n, lanes int
}

// shape runs the closure of global warp i in shape mode on b from
// layout cursor at, and returns the warp's shape and the cursor after
// the warp. It is the one shape pass: Kernel sizes every warp with it,
// and gridStream learns each warp's snapshot and length from it.
func (g gridSpec) shape(b *wb, i int, at uint64) (warpShape, uint64) {
	*b = wb{shape: true, mem: layout{next: at}}
	g.build(b, i/g.warps, i%g.warps)
	return warpShape{at: at, n: b.n, lanes: b.nlanes}, b.mem.next
}

// gridStream serves a gridSpec lazily as a trace.Stream. Generators
// allocate per-warp regions *inside* their build closures, so a warp's
// addresses depend on every earlier warp's allocations; the stream
// therefore keeps an incremental shape pass — one warpShape per warp,
// extended on demand — and every refill starts a builder of its own at
// the warp's snapshot and replays its closure in chunk mode, skipping
// instructions before the requested window and stopping at its end
// (wb.full). Replay work per refill is the closure run up to the
// window's end (with O(1) skipped compute runs), traded for never
// materializing the grid. The mutex guards only the shape pass's
// state; the replays themselves share nothing, so concurrent fills of
// different windows run at once.
type gridStream struct {
	g   gridSpec
	key string

	mu     sync.Mutex
	shapes []warpShape // shapes[i] = warp i's snapshot and length
	at     uint64      // layout cursor after the last shaped warp
	sb     wb          // the shape pass's builder
}

// newGridStream wraps g; key is the stream's cache identity, its
// SpecKey.
func newGridStream(g gridSpec, key string) *gridStream {
	return &gridStream{g: g, key: key, at: g.mem.next}
}

func (s *gridStream) Name() string        { return s.g.name }
func (s *gridStream) Blocks() int         { return s.g.blocks }
func (s *gridStream) Warps(block int) int { return s.g.warps }
func (s *gridStream) SpecKey() string     { return s.key }

// shaped extends the shape pass through global warp index idx and
// returns that warp's shape.
func (s *gridStream) shaped(idx int) warpShape {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.shapes) <= idx {
		var sh warpShape
		sh, s.at = s.g.shape(&s.sb, len(s.shapes), s.at)
		s.shapes = append(s.shapes, sh)
	}
	return s.shapes[idx]
}

func (s *gridStream) Fill(block, warp, start int, c *trace.Chunk) ([]trace.Instr, bool, bool) {
	sh := s.shaped(block*s.g.warps + warp)
	window := cap(c.Instrs)
	if window == 0 {
		window = trace.DefaultChunkInstrs
	}
	limit := min(start+window, sh.n)
	b := &wb{chunk: c, skip: start, limit: limit, mem: layout{next: sh.at}}
	s.g.build(b, block, warp)
	return c.Instrs, limit == sh.n, true
}

// seedFor derives a deterministic per-(benchmark, block, warp) PRNG.
func seedFor(app uint64, block, warp int) *prng.Source {
	return prng.New(app*1_000_003 + uint64(block)*8_191 + uint64(warp)*131 + 17)
}

// lineAt returns the address of the i-th line of a region.
func lineAt(base addr.Addr, i int) addr.Addr {
	return base + addr.Addr(i*lineBytes)
}
