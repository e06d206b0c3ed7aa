package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// aheadBatch is how many posted windows the engine goroutine collects
// before it hands them to the helper with one wake-up. Waking the
// helper once per window costs more CPU than the fills it saves.
const aheadBatch = 16

// aheadQueue is the most requests handed to the helper and not yet
// taken up by it. A batch that finds the queue full is handed over in
// part; the rest stay queued without being listed, and their cursors
// take them back. A fixed queue keeps a helper that falls behind from
// growing it, and the steady state free of allocations.
const aheadQueue = 16 * aheadBatch

// The states of a read-ahead request. Only the engine goroutine moves a
// request out of idle (posting it) or done (taking its window), and
// takes a queued one back; only the helper moves a queued request to
// busy and a busy one to done.
const (
	aheadIdle uint32 = iota
	aheadQueued
	aheadBusy
	aheadDone
)

// A ReadAhead fills and packs the next windows of stream cursors on
// one helper goroutine, so the goroutine that ticks the SMs mostly
// finds a refill ready and swaps chunks instead of filling. By the
// Stream contract a window is a pure function of (stream, block, warp,
// start), so a window from the helper is the window an inline fill
// would have read.
//
// The engine goroutine never waits for a window still queued: it takes
// it back and fills it inline, as it would with no helper. It waits
// only for a window the helper is filling at that moment. A pool takes
// part once its Ahead is set; StartReadAhead starts the helper and Stop
// joins it.
type ReadAhead struct {
	mu    sync.Mutex
	queue []*ahead // posted requests, for the helper

	wake   chan struct{} // one pending wake-up at most
	quit   chan struct{}
	exited chan struct{}

	batch []*ahead // engine goroutine: posted, not yet handed over

	// The helper's own: the requests it is working through and the
	// chunk it fills windows into.
	work          []*ahead
	scratch       *Chunk
	scratchInstrs int
}

// An ahead is one cursor's request for its next window, and the
// ops-only chunk that window is packed into.
type ahead struct {
	state atomic.Uint32
	w     window
	pool  *ChunkPool // the pool it belongs to: window size and warp size
	line  int        // the requester's line size

	chunk *Chunk
	n     int  // window length
	eof   bool // the window ends the warp
	err   error
	fault any // a panic of the window's Fill, raised again where it is taken
}

// StartReadAhead starts the helper goroutine. The caller must Stop it,
// once.
func StartReadAhead() *ReadAhead {
	r := &ReadAhead{
		queue:  make([]*ahead, 0, aheadQueue),
		work:   make([]*ahead, 0, aheadQueue),
		batch:  make([]*ahead, 0, aheadBatch),
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go r.run()
	return r
}

// Stop joins the helper. It finishes the window it is filling, if any;
// requests still queued stay queued, and their cursors fill those
// windows inline.
func (r *ReadAhead) Stop() {
	close(r.quit)
	<-r.exited
}

// post queues a for the helper, handing the batch over when it is
// full. a must be idle and name its window.
func (r *ReadAhead) post(a *ahead) {
	a.state.Store(aheadQueued)
	r.batch = append(r.batch, a)
	if len(r.batch) >= aheadBatch {
		r.flush()
	}
}

// flush hands the collected requests to the helper, as many as its
// queue has room for, and wakes it.
func (r *ReadAhead) flush() {
	if len(r.batch) == 0 {
		return
	}
	r.mu.Lock()
	n := min(len(r.batch), cap(r.queue)-len(r.queue))
	r.queue = append(r.queue, r.batch[:n]...)
	r.mu.Unlock()
	r.batch = r.batch[:0]
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// run is the helper goroutine. A queue may name a request more than
// once, or name one taken back since; only a request still queued is
// filled.
func (r *ReadAhead) run() {
	defer close(r.exited)
	for {
		select {
		case <-r.quit:
			return
		case <-r.wake:
		}
		r.mu.Lock()
		r.work, r.queue = r.queue, r.work[:0]
		r.mu.Unlock()
		for _, a := range r.work {
			select {
			case <-r.quit:
				return
			default:
			}
			if a.state.CompareAndSwap(aheadQueued, aheadBusy) {
				r.fill(a)
				a.state.Store(aheadDone)
			}
		}
	}
}

// fill reads a's window into the helper's scratch chunk and packs it
// into a's chunk, as Cursor.refill does inline. A panic of the Fill is
// kept on a for the cursor to raise.
func (r *ReadAhead) fill(a *ahead) {
	defer func() {
		if v := recover(); v != nil {
			a.n, a.eof, a.err, a.fault = 0, true, nil, v
		}
	}()
	if r.scratch == nil || r.scratchInstrs != a.pool.chunkInstrs {
		r.scratch, r.scratchInstrs = newChunk(a.pool.chunkInstrs), a.pool.chunkInstrs
	}
	ch := r.scratch
	ch.Reset()
	win, eof, _ := a.w.src.Fill(a.w.block, a.w.warp, a.w.start, ch)
	a.n, a.eof, a.err = len(win), eof, ch.Err
	if a.err == nil {
		a.chunk.Ops, a.chunk.Lines, a.err = packInstrs(a.chunk.Ops[:0], a.chunk.Lines[:0], win, a.w.start, a.line, a.pool.WarpSize)
	}
}

// settle brings a back to idle for the engine goroutine: true when the
// helper filled its window, false when a was idle or still queued (the
// caller fills the window itself). It waits only while the helper is
// filling a, one window's fill at most.
func (a *ahead) settle() bool {
	for {
		switch a.state.Load() {
		case aheadQueued:
			if a.state.CompareAndSwap(aheadQueued, aheadIdle) {
				return false
			}
		case aheadBusy:
			runtime.Gosched()
		case aheadDone:
			a.state.Store(aheadIdle)
			return true
		default:
			return false
		}
	}
}
