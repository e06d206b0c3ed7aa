package workloads

import (
	"math"
	"slices"
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

// wb builds a window of one warp's instruction stream: it runs a
// generator's build closure, materializes the instructions whose index
// falls in [skip, limit) into chunk, and only counts the rest (n, and
// their lane addresses in nlanes). That one mode serves every caller:
//
//   - Kernel builds each warp as the window [0, n), into a chunk whose
//     Instrs and Addrs the shape pass sized exactly, so a warp is two
//     allocations whatever its length, and every lane slice is a capped
//     sub-slice of one arena: an append to one instruction's lanes can
//     never write over the next one's.
//   - gridStream.Fill builds the window a cursor asks for.
//   - The shape pass (gridSpec.shapes) is the empty window past the
//     warp's end (skip = limit = math.MaxInt, no chunk): it only counts.
//
// A builder owns its layout cursor, mem: the closure allocates its
// per-warp regions through array, starting from the cursor the shape
// pass recorded before the warp. Nothing a build writes is shared, so
// warps can be built in any order and on any goroutine.
type wb struct {
	mem         layout
	chunk       *trace.Chunk
	skip, limit int
	n           int // instructions emitted so far
	nlanes      int // lane addresses of the instructions not materialized
}

// array reserves a per-warp region of n cache lines from the builder's
// layout cursor.
func (b *wb) array(lines int) addr.Addr { return b.mem.array(lines) }

// materializes reports, without advancing the stream, whether the next
// instruction falls in the window. A closure asks it to skip drawing
// the lanes of an instruction that does not; the emit that follows
// still advances the stream and counts the lanes.
func (b *wb) materializes() bool { return b.n >= b.skip && b.n < b.limit }

// emits reports whether the memory instruction being built, with k
// lanes, falls in the window. When it does not, the instruction only
// advances the stream and counts its lanes.
func (b *wb) emits(k int) bool {
	if b.materializes() {
		return true
	}
	b.n++
	b.nlanes += k
	return false
}

// full reports that the window's last instruction has been emitted:
// nothing the closure emits from here on is materialized, so its loops
// stop early. Every window starts a builder of its own at the warp's
// layout snapshot, and the shape pass's window never fills, so
// stopping changes no window.
func (b *wb) full() bool { return b.n >= b.limit }

// lanes carves an n-address slice for the instruction being built from
// the chunk's address arena, capped so later appends can never scribble
// over a neighbor. It is not cleared: every caller writes every lane.
func (b *wb) lanes(n int) []addr.Addr {
	start := len(b.chunk.Addrs)
	b.chunk.Addrs = slices.Grow(b.chunk.Addrs, n)[:start+n]
	return b.chunk.Addrs[start : start+n : start+n]
}

// push emits a materialized instruction and advances the stream.
func (b *wb) push(in trace.Instr) {
	b.chunk.Instrs = append(b.chunk.Instrs, in)
	b.n++
}

// compute appends n full-warp ALU instructions. The part of the run
// outside the window costs O(1), which makes chunked replay of
// compute-heavy kernels cheap.
func (b *wb) compute(pc uint32, n int) {
	for range min(b.n+n, b.limit) - max(b.n, b.skip) {
		b.chunk.Instrs = append(b.chunk.Instrs, trace.NewCompute(pc, computeLatency, warpLanes))
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

// shapes is the one shape pass: it walks the layout cursor through
// every warp of the grid once, in order, as the empty window past each
// warp's end, and returns every warp's shape and the grid's instruction
// total. Kernel sizes its warps and picks its fan-out from it, and a
// gridStream runs it on its first Fill.
func (g gridSpec) shapes() ([]warpShape, int) {
	shapes := make([]warpShape, g.blocks*g.warps)
	at, total := g.mem.next, 0
	var b wb
	for i := range shapes {
		b = wb{mem: layout{next: at}, skip: math.MaxInt, limit: math.MaxInt}
		g.build(&b, i/g.warps, i%g.warps)
		shapes[i] = warpShape{at: at, n: b.n, lanes: b.nlanes}
		at, total = b.mem.next, total+b.n
	}
	return shapes, total
}

// fill builds instructions [skip, limit) of global warp i, whose layout
// snapshot is at, into c: the one build that Kernel and gridStream.Fill
// share.
func (g gridSpec) fill(i int, at uint64, skip, limit int, c *trace.Chunk) {
	b := &wb{mem: layout{next: at}, chunk: c, skip: skip, limit: limit}
	g.build(b, i/g.warps, i%g.warps)
}

// gridStream serves a gridSpec lazily as a trace.Stream. Generators
// allocate per-warp regions *inside* their build closures, so a warp's
// addresses depend on every earlier warp's allocations; the stream
// therefore runs the grid's shape pass once, on its first Fill, and
// every refill starts a builder of its own at the warp's snapshot and
// replays its closure, skipping instructions before the requested
// window and stopping at its end (wb.full). Replay work per refill is
// the closure run up to the window's end (with O(1) skipped compute
// runs), traded for never materializing the grid. After the shape pass
// the stream is read-only, so concurrent fills of different windows
// run at once.
type gridStream struct {
	g   gridSpec
	key string

	once   sync.Once
	shapes []warpShape // shapes[i] = warp i's snapshot and length
}

// newGridStream wraps g; key is the stream's cache identity, its
// SpecKey.
func newGridStream(g gridSpec, key string) *gridStream {
	return &gridStream{g: g, key: key}
}

func (s *gridStream) Name() string        { return s.g.name }
func (s *gridStream) Blocks() int         { return s.g.blocks }
func (s *gridStream) Warps(block int) int { return s.g.warps }
func (s *gridStream) SpecKey() string     { return s.key }

func (s *gridStream) Fill(block, warp, start int, c *trace.Chunk) ([]trace.Instr, bool, bool) {
	s.once.Do(func() { s.shapes, _ = s.g.shapes() })
	i := block*s.g.warps + warp
	sh := s.shapes[i]
	window := cap(c.Instrs)
	if window == 0 {
		window = trace.DefaultChunkInstrs
	}
	limit := min(start+window, sh.n)
	s.g.fill(i, sh.at, start, limit, c)
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
