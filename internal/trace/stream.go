package trace

import (
	"fmt"

	"repro/internal/addr"
)

// A Stream is a lazy, chunked view of a kernel: the same grid shape as
// a Kernel (blocks of warps of in-order instructions), but instruction
// windows are produced on demand instead of materialized up front.
// Backends include on-demand workload generators, on-disk trace files,
// and — for compatibility — a fully precomputed Kernel.
//
// Streams must be deterministic: the same (block, warp, start) always
// yields the same window contents, so simulations are bit-identical to
// their eager counterparts and resumable across refills.
type Stream interface {
	// Name is the kernel name (shown in tables and error messages).
	Name() string

	// Blocks is the number of thread blocks in the grid.
	Blocks() int

	// Warps is the number of warps in the given block.
	Warps(block int) int

	// Fill produces the instruction window of warp (block, warp)
	// beginning at in-warp instruction index start. The window is
	// either written into c's backing storage (owned=true) or aliases
	// storage shared with other consumers (owned=false); callers treat
	// it as read-only either way. eof reports that the window reaches
	// the end of the warp's trace; a non-eof window is never empty.
	// start is always either 0 or the exact end of the previously
	// returned window, so sequential backends can keep a cheap
	// continuation in c.Resume. Backends size their windows to
	// cap(c.Instrs) (DefaultChunkInstrs when that is zero).
	Fill(block, warp, start int, c *Chunk) (win []Instr, eof, owned bool)

	// SpecKey is a stable content identity for the whole stream —
	// equal keys mean byte-identical traces — used by the runner's
	// result cache in place of a materialized-kernel digest. An empty
	// key marks the stream uncacheable.
	SpecKey() string
}

// DefaultChunkInstrs is the instruction-window size streaming cursors
// request per refill. At 64 instructions a fully diverged chunk tops
// out around 37 KB (64 instrs x 32 lanes x 8-byte addresses, as much
// again for their coalesced lines, 1 KB of ops), so even a fully
// resident machine — 16 SMs x 48 warps — is bounded near 28 MB of
// chunk storage regardless of trace footprint.
const DefaultChunkInstrs = 64

// A Chunk is one warp's reusable refill buffer. Streams that own their
// windows build instructions in Instrs with per-lane addresses in
// Addrs; the cursor packs the window into Ops, with the coalesced
// lines of multi-line memory ops in Lines. Buf is scratch for
// byte-level backends (trace files). Resume carries a backend-private
// continuation across refills of the same warp; Reset preserves it,
// and backends must validate it before trusting it.
type Chunk struct {
	Instrs []Instr
	Addrs  []addr.Addr
	Ops    []Op
	Lines  []addr.Addr
	Buf    []byte
	Resume any
}

// Reset truncates the chunk's storage for the next refill, keeping
// capacity (and the Resume continuation) so steady-state refills stay
// allocation-free.
func (c *Chunk) Reset() {
	c.Instrs = c.Instrs[:0]
	c.Addrs = c.Addrs[:0]
	c.Ops = c.Ops[:0]
	c.Lines = c.Lines[:0]
}

// A ChunkPool recycles chunks across the warps of one SM. It is
// deliberately unsynchronized: each SM owns one pool, and all warp
// refills happen on that SM's tick, which the engine already keeps
// single-threaded.
type ChunkPool struct {
	// WarpSize is the machine's warp width: an instruction with more
	// active lanes ends its cursor with an *InstrError. The SM sets it;
	// trace tools, which know no machine, keep NewChunkPool's
	// MaxOpLanes — the most an Op can hold.
	WarpSize int

	chunkInstrs int
	free        []*Chunk
}

// NewChunkPool returns a pool handing out chunks sized for
// chunkInstrs-instruction windows (DefaultChunkInstrs if <= 0).
func NewChunkPool(chunkInstrs int) *ChunkPool {
	if chunkInstrs <= 0 {
		chunkInstrs = DefaultChunkInstrs
	}
	return &ChunkPool{WarpSize: MaxOpLanes, chunkInstrs: chunkInstrs}
}

// ChunkInstrs is the window size this pool's chunks are sized for.
func (p *ChunkPool) ChunkInstrs() int { return p.chunkInstrs }

// Get pops a free chunk, allocating a fresh one with preallocated
// backing when the free list is empty.
func (p *ChunkPool) Get() *Chunk {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	const lanes = 32
	return &Chunk{
		Instrs: make([]Instr, 0, p.chunkInstrs),
		Addrs:  make([]addr.Addr, 0, p.chunkInstrs*lanes),
		Ops:    make([]Op, 0, p.chunkInstrs),
		Lines:  make([]addr.Addr, 0, p.chunkInstrs*4),
	}
}

// Put returns a chunk to the free list.
func (p *ChunkPool) Put(c *Chunk) {
	if c != nil {
		p.free = append(p.free, c)
	}
}

// A Cursor walks one warp's instruction stream in order, over either a
// whole precomputed WarpTrace or a pooled chunk window that it refills
// from a trace.Stream on demand. Either way the issue stage reads the
// same thing — the current packed Op and its lines — and never asks
// which; the Instr the op was packed from stays reachable through Cur
// for trace-level consumers and self-checks.
type Cursor struct {
	ops   []Op        // packed window; nil when no line size was given
	lines []addr.Addr // arena ops index into
	win   []Instr
	off   int
	base  int // in-warp index of win[0]
	eof   bool

	src      Stream
	pool     *ChunkPool
	chunk    *Chunk
	lineSize int
	block    int
	warp     int
	err      error
}

// InitPrecomputed points the cursor at a fully materialized warp trace
// for walking its Instrs; Op and OpLines need InitPacked.
func (c *Cursor) InitPrecomputed(wt *WarpTrace) {
	*c = Cursor{win: wt.Instrs, eof: true}
}

// InitPacked points the cursor at a fully materialized warp trace and
// its packed program for lineSize, building the program if the warp
// was not packed for that line size. A warp that cannot be packed
// leaves the cursor exhausted with Err set.
func (c *Cursor) InitPacked(wt *WarpTrace, lineSize int) {
	p, _, err := wt.packed(lineSize, nil)
	if err != nil {
		*c = Cursor{eof: true, err: err}
		return
	}
	*c = Cursor{ops: p.ops, lines: p.lines, win: wt.Instrs, eof: true}
}

// InitStream points the cursor at warp (block, warp) of src and loads
// the first window. lineSize > 0 has every window packed for the issue
// stage (Op, OpLines); 0 serves Cur alone.
func (c *Cursor) InitStream(src Stream, pool *ChunkPool, lineSize, block, warp int) {
	*c = Cursor{src: src, pool: pool, lineSize: lineSize, block: block, warp: warp}
	c.refill(0)
}

// Exhausted reports that the warp has no further instructions.
func (c *Cursor) Exhausted() bool { return c.eof && c.off >= len(c.win) }

// Err is the *PackError or *InstrError that cut the warp short, if one
// did: a window with a value no Op can hold, or an instruction that
// breaks a per-instruction rule, ends the cursor there and then.
func (c *Cursor) Err() error { return c.err }

// Op returns the current instruction in packed form. Valid only when
// !Exhausted(); the pointer is invalidated by the next Advance.
func (c *Cursor) Op() *Op { return &c.ops[c.off] }

// OpLines returns the coalesced lines of the current instruction,
// which must be a load or store. The slice aliases the cursor's
// window: read-only, and invalidated by the next Advance.
func (c *Cursor) OpLines() []addr.Addr { return c.ops[c.off].lines(c.lines) }

// Cur returns the current instruction. Valid only when !Exhausted();
// the pointer is invalidated by the next Advance.
func (c *Cursor) Cur() *Instr { return &c.win[c.off] }

// Index is the in-warp index of the current instruction.
func (c *Cursor) Index() int { return c.base + c.off }

// Advance steps past the current instruction, refilling the window in
// place when it runs dry. Any pointer from Op, OpLines or Cur is
// invalid afterwards.
func (c *Cursor) Advance() {
	c.off++
	if c.off >= len(c.win) && !c.eof {
		c.refill(c.base + len(c.win))
	}
}

// Rewind restarts the warp from its first instruction.
func (c *Cursor) Rewind() {
	if c.src == nil {
		c.off = 0
		return
	}
	c.refill(0)
}

// Release returns the cursor's chunk to the pool and clears the
// cursor. The chunk keeps its Resume continuation, so a warp of the
// same stream reusing it later can still fast-path.
func (c *Cursor) Release() {
	if c.chunk != nil {
		c.pool.Put(c.chunk)
	}
	*c = Cursor{}
}

// refill loads the window starting at start and packs it into the
// chunk — the per-window counterpart of Kernel.Pack, through the same
// packInstrs. Ops never go into the window itself, so windows that
// alias shared storage are packed like owned ones.
func (c *Cursor) refill(start int) {
	if c.chunk == nil {
		c.chunk = c.pool.Get()
	}
	ch := c.chunk
	ch.Reset()
	win, eof, _ := c.src.Fill(c.block, c.warp, start, ch)
	c.win, c.eof, c.base, c.off = win, eof, start, 0
	if c.lineSize == 0 {
		return
	}
	var err error
	if ch.Ops, ch.Lines, err = packInstrs(ch.Ops, ch.Lines, win, start, c.lineSize, c.pool.WarpSize); err != nil {
		// End the warp here: the SM sees an exhausted cursor, reads Err.
		c.err = fmt.Errorf("stream %q block %d warp %d: %w", c.src.Name(), c.block, c.warp, err)
		c.win, c.ops, c.eof = nil, nil, true
		return
	}
	c.ops, c.lines = ch.Ops, ch.Lines
}

// KernelStream adapts a fully precomputed Kernel to the Stream
// interface: windows alias the kernel's own storage (owned=false), so
// a shared kernel is never written through a stream.
type KernelStream struct {
	k *Kernel
}

// NewKernelStream wraps k as a Stream.
func NewKernelStream(k *Kernel) *KernelStream { return &KernelStream{k: k} }

// Kernel returns the wrapped kernel (the runner digests it for cache
// keys, since a wrapped kernel has no spec-level identity).
func (s *KernelStream) Kernel() *Kernel { return s.k }

func (s *KernelStream) Name() string        { return s.k.Name }
func (s *KernelStream) Blocks() int         { return len(s.k.Blocks) }
func (s *KernelStream) Warps(block int) int { return len(s.k.Blocks[block].Warps) }
func (s *KernelStream) SpecKey() string     { return "" }

func (s *KernelStream) Fill(block, warp, start int, c *Chunk) (win []Instr, eof, owned bool) {
	rest := s.k.Blocks[block].Warps[warp].Instrs[start:]
	window := cap(c.Instrs)
	if window == 0 {
		window = DefaultChunkInstrs
	}
	if len(rest) > window {
		return rest[:window], false, false
	}
	return rest, true, false
}

// MultiStream concatenates sub-streams into one grid — the
// multi-kernel launch shape, where several kernels' blocks share the
// machine back to back.
type MultiStream struct {
	name    string
	subs    []Stream
	starts  []int // starts[i] = first global block index of subs[i]
	nBlocks int
}

// NewMultiStream concatenates subs under one name.
func NewMultiStream(name string, subs ...Stream) *MultiStream {
	m := &MultiStream{name: name, subs: subs, starts: make([]int, len(subs))}
	for i, s := range subs {
		m.starts[i] = m.nBlocks
		m.nBlocks += s.Blocks()
	}
	return m
}

func (m *MultiStream) Name() string { return m.name }
func (m *MultiStream) Blocks() int  { return m.nBlocks }

// sub maps a global block index to (sub-stream, local block index).
func (m *MultiStream) sub(block int) (Stream, int) {
	lo, hi := 0, len(m.subs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.starts[mid] <= block {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return m.subs[lo], block - m.starts[lo]
}

func (m *MultiStream) Warps(block int) int {
	s, b := m.sub(block)
	return s.Warps(b)
}

func (m *MultiStream) Fill(block, warp, start int, c *Chunk) ([]Instr, bool, bool) {
	s, b := m.sub(block)
	return s.Fill(b, warp, start, c)
}

func (m *MultiStream) SpecKey() string {
	key := "multi:" + m.name
	for _, s := range m.subs {
		sk := s.SpecKey()
		if sk == "" {
			return ""
		}
		key += "|" + sk
	}
	return key
}

// Materialize runs the whole stream eagerly into a Kernel — the
// bridge for consumers that still need random access (trace-file
// recording uses it warp by warp instead, via Fill directly).
func Materialize(s Stream) *Kernel {
	k := &Kernel{Name: s.Name(), Blocks: make([]*Block, s.Blocks())}
	pool := NewChunkPool(DefaultChunkInstrs)
	for bi := range k.Blocks {
		blk := &Block{Warps: make([]*WarpTrace, s.Warps(bi))}
		for wi := range blk.Warps {
			var cur Cursor
			cur.InitStream(s, pool, 0, bi, wi)
			wt := &WarpTrace{}
			for !cur.Exhausted() {
				in := *cur.Cur()
				if len(in.Addrs) > 0 {
					in.Addrs = append([]addr.Addr(nil), in.Addrs...)
				}
				wt.Instrs = append(wt.Instrs, in)
				cur.Advance()
			}
			cur.Release()
			blk.Warps[wi] = wt
		}
		k.Blocks[bi] = blk
	}
	return k
}
