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
// their eager counterparts, a window can be read again instead of
// kept, and a window filled ahead on another goroutine is the window
// an inline fill would read. A ChunkPool tells windows apart by
// (stream, block, warp, start), so implementations must be comparable
// types (every backend here is a pointer).
//
// Fill may be called concurrently for different windows, each call
// with its own Chunk: a streamed engine run fills windows ahead on a
// helper goroutine (ReadAhead) while its own goroutine fills the ones
// it takes back. The backends here meet that as follows: a generator
// stream shapes its grid once, on its first Fill, and only reads
// afterwards, a FileStream reads with ReadAt into the chunk's own Buf,
// a KernelStream only reads, and a MultiStream delegates to its
// sub-streams.
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
	// start is 0, the end of the window returned before, or that
	// window's own start again (a re-read, which must yield the same
	// window). Backends size their windows to cap(c.Instrs)
	// (DefaultChunkInstrs when that is zero). A backend that cannot
	// produce the window sets c.Err and returns an empty eof window.
	Fill(block, warp, start int, c *Chunk) (win []Instr, eof, owned bool)

	// SpecKey is a stable content identity for the whole stream —
	// equal keys mean byte-identical traces — used by the runner's
	// result cache in place of a materialized-kernel digest. An empty
	// key marks the stream uncacheable.
	SpecKey() string
}

// DefaultChunkInstrs is the instruction-window size streaming cursors
// request per refill. A stream cursor holds only its windows' ops:
// 1 KB at 64 instructions, plus the coalesced lines of its multi-line
// memory ops (none when every op coalesces to one line, at most 16 KB
// for a fully diverged window of 64 x 32 lines). Under a ReadAhead it
// holds a second such chunk, its next window. Each SM's pool adds one
// scratch chunk of ~19 KB (64 instrs, 64 x 32 lane addresses) that
// every inline window is filled into, and the helper one more. A fully
// resident machine — 16 SMs x 48 warps — so holds ~2 MB of chunk
// storage on coalesced streams and at most ~27 MB on fully diverged
// ones, regardless of trace footprint.
const DefaultChunkInstrs = 64

// A Chunk is a reusable refill buffer. Streams that own their windows
// build instructions in Instrs with per-lane addresses in Addrs; Buf is
// scratch for byte-level backends (trace files). A stream cursor keeps
// only Ops and, for its multi-line memory ops, their coalesced Lines.
// Err is a backend's report that it could not produce the window asked
// for (a *FormatError from a damaged trace file); the window it returns
// with it is empty and eof.
type Chunk struct {
	Instrs []Instr
	Addrs  []addr.Addr
	Ops    []Op
	Lines  []addr.Addr
	Buf    []byte
	Err    error
}

// Reset truncates the chunk's storage for the next refill, keeping
// capacity so steady-state refills stay allocation-free, and clears
// Err.
func (c *Chunk) Reset() {
	c.Instrs = c.Instrs[:0]
	c.Addrs = c.Addrs[:0]
	c.Ops = c.Ops[:0]
	c.Lines = c.Lines[:0]
	c.Err = nil
}

// A ChunkPool recycles chunks across the warps of one SM. It is
// deliberately unsynchronized: each SM owns one pool, and all warp
// refills happen on that SM's tick, which the engine already keeps
// single-threaded. The one exception is the hand-over of a window
// filled ahead, which goes through the request's atomic state.
//
// Stream cursors fill every window into the pool's one scratch chunk
// and keep only the packed form in a chunk of their own, so the
// instruction, address and byte arenas exist once per pool and stay
// hot, not once per resident warp.
type ChunkPool struct {
	// WarpSize is the machine's warp width: an instruction with more
	// active lanes ends its cursor with an *InstrError. The SM sets it;
	// trace tools, which know no machine, keep NewChunkPool's
	// MaxOpLanes — the most an Op can hold.
	WarpSize int

	// Ahead, when set, has stream cursors post their next window to
	// its helper after every refill. Set it before the pool's first
	// cursor; nil fills every window inline.
	Ahead *ReadAhead

	chunkInstrs int
	free        []*Chunk // full chunks, for Get
	packed      []*Chunk // ops-only chunks of stream cursors
	aheads      []*ahead // idle read-ahead requests of stream cursors

	scratch *Chunk  // where stream cursors' windows are filled
	held    window  // the window scratch holds; zero when none
	heldWin []Instr // that window's instructions
}

// A window names one Fill: by the Stream contract, equal windows read
// the same instructions.
type window struct {
	src                Stream
	block, warp, start int
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
// instruction and address arenas when the free list is empty.
func (p *ChunkPool) Get() *Chunk {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return newChunk(p.chunkInstrs)
}

// newChunk allocates a chunk with instruction and address arenas for
// instrs-instruction windows of full warps.
func newChunk(instrs int) *Chunk {
	const lanes = 32
	return &Chunk{
		Instrs: make([]Instr, 0, instrs),
		Addrs:  make([]addr.Addr, 0, instrs*lanes),
	}
}

// Put returns a chunk to the free list.
func (p *ChunkPool) Put(c *Chunk) {
	if c != nil {
		p.free = append(p.free, c)
	}
}

// getPacked pops an ops-only chunk for a stream cursor. Its Lines grow
// only when a window has multi-line memory ops.
func (p *ChunkPool) getPacked() *Chunk {
	if n := len(p.packed); n > 0 {
		c := p.packed[n-1]
		p.packed = p.packed[:n-1]
		return c
	}
	return &Chunk{Ops: make([]Op, 0, p.chunkInstrs)}
}

// getAhead pops an idle read-ahead request with an ops-only chunk.
func (p *ChunkPool) getAhead() *ahead {
	if n := len(p.aheads); n > 0 {
		a := p.aheads[n-1]
		p.aheads = p.aheads[:n-1]
		return a
	}
	return &ahead{pool: p, chunk: p.getPacked()}
}

// fill reads window w into the scratch chunk and remembers it as held.
// A window the stream could not fill leaves nothing held.
func (p *ChunkPool) fill(w window) (win []Instr, eof bool, err error) {
	if p.scratch == nil {
		p.scratch = p.Get()
	}
	ch := p.scratch
	ch.Reset()
	win, eof, _ = w.src.Fill(w.block, w.warp, w.start, ch)
	if ch.Err != nil {
		p.held, p.heldWin = window{}, nil
		return nil, true, ch.Err
	}
	p.held, p.heldWin = w, win
	return win, eof, nil
}

// A Cursor walks one warp's instruction stream in order, over either a
// whole precomputed WarpTrace or a chunk window that it refills from a
// trace.Stream on demand. Either way the issue stage reads the same
// thing — the current packed Op and its lines — and never asks which;
// the Instr the op was packed from stays reachable through Cur for
// trace-level consumers and self-checks.
type Cursor struct {
	ops   []Op        // packed window; nil for InitPrecomputed
	lines []addr.Addr // arena ops index into
	win   []Instr     // the whole warp's instructions; nil for a stream
	n     int         // window length
	off   int
	base  int // in-warp index of the window's first instruction
	eof   bool

	src      Stream
	pool     *ChunkPool
	chunk    *Chunk
	next     *ahead // the next window, posted to pool.Ahead; nil when none was
	lineSize int
	block    int
	warp     int
	err      error
}

// InitPrecomputed points the cursor at a fully materialized warp trace
// for walking its Instrs; Op and OpLines need InitPacked.
func (c *Cursor) InitPrecomputed(wt *WarpTrace) {
	*c = Cursor{win: wt.Instrs, n: len(wt.Instrs), eof: true}
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
	*c = Cursor{ops: p.ops, lines: p.lines, win: wt.Instrs, n: len(wt.Instrs), eof: true}
}

// InitStream points the cursor at warp (block, warp) of src and loads
// the first window. Every window is packed for the issue stage (Op,
// OpLines) with the given line size, which must be positive, and only
// the packed form is kept: the instructions are filled into the pool's
// scratch chunk, where Cur finds them.
func (c *Cursor) InitStream(src Stream, pool *ChunkPool, lineSize, block, warp int) {
	*c = Cursor{src: src, pool: pool, lineSize: lineSize, block: block, warp: warp}
	c.refill(0)
}

// Exhausted reports that the warp has no further instructions.
func (c *Cursor) Exhausted() bool { return c.eof && c.off >= c.n }

// Err is the *PackError, *InstrError or *FormatError that cut the warp
// short, if one did: a window with a value no Op can hold, an
// instruction that breaks a per-instruction rule, or a window its stream
// could not fill ends the cursor there and then.
func (c *Cursor) Err() error { return c.err }

// Op returns the current instruction in packed form. Valid only when
// !Exhausted(); the pointer is invalidated by the next Advance.
func (c *Cursor) Op() *Op { return &c.ops[c.off] }

// OpLines returns the coalesced lines of the current instruction,
// which must be a load or store. The slice aliases the cursor's
// window: read-only, and invalidated by the next Advance.
func (c *Cursor) OpLines() []addr.Addr { return c.ops[c.off].lines(c.lines) }

// Cur returns the current instruction. Valid only when !Exhausted();
// the pointer is invalidated by the next Advance. A stream cursor reads
// it from its pool's scratch chunk, re-reading its window there first
// if the pool has filled another since; the pointer then also lasts
// only until the next fill of that pool, and is nil if the re-read
// fails (CheckOp returns why). Cur is for trace-level consumers and
// self-checks, never for the issue stage.
func (c *Cursor) Cur() *Instr {
	in, _ := c.instr()
	return in
}

// instr is Cur with the error of a failed re-read.
func (c *Cursor) instr() (*Instr, error) {
	if c.src == nil {
		return &c.win[c.off], nil
	}
	p := c.pool
	w := window{c.src, c.block, c.warp, c.base}
	if p.held != w {
		if _, _, err := p.fill(w); err != nil {
			return nil, fmt.Errorf("stream %q block %d warp %d: re-reading the window at %d: %w",
				c.src.Name(), c.block, c.warp, c.base, err)
		}
	}
	if len(p.heldWin) != c.n {
		return nil, fmt.Errorf("stream %q block %d warp %d: the window at %d re-read as %d instructions, was %d",
			c.src.Name(), c.block, c.warp, c.base, len(p.heldWin), c.n)
	}
	return &p.heldWin[c.off], nil
}

// Index is the in-warp index of the current instruction.
func (c *Cursor) Index() int { return c.base + c.off }

// Advance steps past the current instruction, refilling the window in
// place when it runs dry. Any pointer from Op, OpLines or Cur is
// invalid afterwards.
func (c *Cursor) Advance() {
	c.off++
	if c.off >= c.n && !c.eof {
		c.refill(c.base + c.n)
	}
}

// Release returns the cursor's chunks to the pool and clears the
// cursor. A next window the helper is filling is waited for first.
func (c *Cursor) Release() {
	if a := c.next; a != nil {
		a.settle()
		a.fault = nil
		c.pool.aheads = append(c.pool.aheads, a)
	}
	if c.chunk != nil {
		c.pool.packed = append(c.pool.packed, c.chunk)
	}
	*c = Cursor{}
}

// refill loads the window starting at start into the pool's scratch
// and packs it into the cursor's chunk: the per-window counterpart of
// Kernel.Pack, through the same packInstrs. Ops never go into the
// window itself, so windows that alias shared storage are packed like
// owned ones. A cursor whose next window the pool's ReadAhead has
// filled swaps that chunk in instead, and posts the window after.
func (c *Cursor) refill(start int) {
	var (
		n   int
		eof bool
		err error
	)
	if c.chunk == nil {
		c.chunk = c.pool.getPacked()
	}
	if a := c.next; a != nil && a.settle() {
		if v := a.fault; v != nil {
			a.fault = nil
			panic(v)
		}
		c.chunk, a.chunk = a.chunk, c.chunk
		n, eof, err = a.n, a.eof, a.err
	} else {
		var win []Instr
		win, eof, err = c.pool.fill(window{c.src, c.block, c.warp, start})
		n = len(win)
		if err == nil {
			ch := c.chunk
			ch.Ops, ch.Lines, err = packInstrs(ch.Ops[:0], ch.Lines[:0], win, start, c.lineSize, c.pool.WarpSize)
		}
	}
	c.ops, c.lines = c.chunk.Ops, c.chunk.Lines
	if err == nil && !eof && c.pool.Ahead != nil {
		c.post(start + n)
	}
	c.n, c.eof, c.base, c.off = n, eof, start, 0
	if err != nil {
		// End the warp here: the SM sees an exhausted cursor, reads Err.
		c.err = fmt.Errorf("stream %q block %d warp %d: %w", c.src.Name(), c.block, c.warp, err)
		c.ops, c.n, c.eof = nil, 0, true
	}
}

// post asks the pool's ReadAhead for the window at start, the only one
// the cursor can refill next: Advance refills the window after the
// current one, and only InitStream, which starts a cursor afresh,
// refills another. The request is idle: refill has just settled it.
func (c *Cursor) post(start int) {
	if c.next == nil {
		c.next = c.pool.getAhead()
	}
	c.next.w, c.next.line = window{c.src, c.block, c.warp, start}, c.lineSize
	c.pool.Ahead.post(c.next)
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
// recording reads the stream warp by warp instead). Each warp is filled
// into one chunk and copied out of it a window of fillInstrs
// instructions at a time, as WriteFile reads it. The error is the first
// window the stream could not fill, wrapped with the stream, block and
// warp.
func Materialize(s Stream) (*Kernel, error) {
	k := &Kernel{Name: s.Name(), Blocks: make([]*Block, s.Blocks())}
	chunk := &Chunk{Instrs: make([]Instr, 0, fillInstrs)}
	for bi := range k.Blocks {
		blk := &Block{Warps: make([]*WarpTrace, s.Warps(bi))}
		for wi := range blk.Warps {
			wt := &WarpTrace{}
			for start, eof := 0, false; !eof; {
				chunk.Reset()
				var win []Instr
				win, eof, _ = s.Fill(bi, wi, start, chunk)
				if chunk.Err != nil {
					return nil, fmt.Errorf("stream %q block %d warp %d: %w", s.Name(), bi, wi, chunk.Err)
				}
				if len(win) == 0 && !eof {
					return nil, fmt.Errorf("stream %q block %d warp %d: empty non-eof window at %d", s.Name(), bi, wi, start)
				}
				for _, in := range win {
					if len(in.Addrs) > 0 {
						in.Addrs = append([]addr.Addr(nil), in.Addrs...)
					}
					wt.Instrs = append(wt.Instrs, in)
				}
				start += len(win)
			}
			blk.Warps[wi] = wt
		}
		k.Blocks[bi] = blk
	}
	return k, nil
}
