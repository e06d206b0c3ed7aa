// Phase-parallel ticking: the engine's second level of parallelism.
//
// The runner already parallelizes *across* simulations; this file
// parallelizes *inside* one. The component index space — L2 partitions
// first, then SMs — is cut into contiguous spans, and each window's
// component phase (window.go) has the workers claim spans off a shared
// atomic cursor (deterministic work stealing): a worker stuck on a hot
// span simply stops claiming while the others drain the rest, so
// hot/idle imbalance never serializes the phase. Spans — not workers —
// own the outbound lanes and the wake bounds, so the simulation output
// depends only on the span layout (a pure
// function of geometry and Options.Cores), never on which worker
// happened to claim which span. That is what keeps results
// bit-identical at any core count, including odd ones. DESIGN.md §10
// carries the base determinism argument and §15 the lane-merge and
// steal-schedule extension.
//
// The barrier is a hybrid spin-then-park eventcount: phases are
// announced by bumping an atomic sequence number, completion by an
// atomic countdown. Both sides spin briefly when real CPUs are
// available and otherwise park on per-worker wake channels (capacity 1,
// non-blocking sends), so an oversubscribed or single-CPU host
// degrades to cheap channel handoffs instead of burning timeslices.
// Every park rechecks its condition in a loop, which makes stale
// tokens — at most one per channel — harmless.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
)

// spansPerWorker is the steal granularity: each worker's fair share of
// the span list. More than one span per worker is what lets stealing
// balance hot against idle components; a small constant keeps the
// serial merge O(spans) and the per-span bookkeeping cheap.
const spansPerWorker = 4

// span is one contiguous range [lo, hi) of the unified component index
// space: indices [0, NumPartitions) are the L2 partitions, indices
// [NumPartitions, NumPartitions+NumSMs) the SMs.
type span struct{ lo, hi int }

// makeSpans splits total components into n contiguous, non-empty,
// gap-free spans of near-equal size, in ascending index order.
func makeSpans(total, n int) []span {
	out := make([]span, n)
	for i := range out {
		out[i] = span{lo: i * total / n, hi: (i + 1) * total / n}
	}
	return out
}

// spanState is what one span hands the serial end of a window. The lanes
// are filled while the span's components run the window — lane j holds
// the packets of the window's j-th cycle, in component order — and
// handed to the crossbar whole, an O(1) slice exchange per lane. All
// buffers keep their backing arrays across windows, so the steady state
// allocates nothing. The pad rounds the struct up to two cache lines so
// concurrent writers of neighboring states don't false-share.
type spanState struct {
	outMem  [][]*mem.Request // SM fetches, per-SM injection-rate bounded
	outCore [][]*mem.Request // partition responses, in partition order
	outPut  []*mem.Request   // stores the partitions consumed
	sent    int              // packets in outMem and outCore

	// active has one bit per cycle of the window in which the span did
	// real work; busy accumulates its population count — the
	// load-imbalance signal behind the phase.span<i>.busy_cycles metrics
	// column. Deterministic: it depends on the span layout, never on
	// worker scheduling.
	active uint64
	busy   uint64
	// next is the earliest cycle at which a component of the span needs
	// running again if nothing arrives for it; parked says an SM of the
	// span holds a parked LD/ST head.
	next   uint64
	parked bool
	_      [16]byte
}

// workerSlot records a panic recovered on a pool worker; the
// coordinator rethrows it as a *PhasePanicError after the barrier.
type workerSlot struct {
	panicVal   any
	panicStack []byte
}

// PhasePanicError wraps a panic that escaped a simulation phase worker.
// The coordinator rethrows it on the engine's own goroutine, so it
// travels the same recovery path as a serial-engine panic: the runner
// catches it and surfaces a *runner.JobPanicError whose Value is this
// error, keeping the worker's original panic value and stack reachable.
type PhasePanicError struct {
	// Worker is the worker index the panic escaped from (1-based:
	// worker 0 is the coordinator and panics through Run directly).
	Worker int
	// Cycle is the first cycle of the window whose component phase
	// panicked.
	Cycle uint64
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

func (e *PhasePanicError) Error() string {
	return fmt.Sprintf("sim: phase worker %d panicked at cycle %d: %v", e.Worker, e.Cycle, e.Value)
}

// phasePool is the persistent worker pool behind Options.Cores > 1. It
// lives for one Run: workers park between phases and exit when stop
// flips quit and bumps the sequence one last time.
type phasePool struct {
	e *Engine
	// seq announces phases: each bump releases the workers into one
	// steal loop. Its atomic store/load pair also publishes the plain
	// window bounds and quit field and the reset cursor.
	seq    atomic.Uint64
	t0, t1 uint64
	quit   bool
	// cursor is the steal counter: the next span index to claim.
	// Workers claim ascending indices until the list is exhausted, so
	// every span runs exactly once per phase and the worker→span
	// assignment — the only nondeterministic quantity — is invisible to
	// the simulation.
	cursor atomic.Int64
	// remaining counts workers still inside the current phase; the
	// last one out posts a token on doneCh (cap 1, non-blocking).
	remaining atomic.Int32
	doneCh    chan struct{}
	// sleeping[w] marks worker w as parked on wakeCh[w]; the
	// coordinator CASes it back before posting a wake token, so
	// already-running workers cost one atomic load per phase.
	sleeping []atomic.Bool
	wakeCh   []chan struct{}
	// spin is how many condition-checks both sides burn before
	// parking; zero whenever the host can't actually run the workers
	// concurrently, where spinning would just steal the timeslice the
	// other side needs.
	spin int
	wg   sync.WaitGroup
}

func newPhasePool(e *Engine) *phasePool {
	n := e.workers
	pp := &phasePool{
		e:        e,
		doneCh:   make(chan struct{}, 1),
		sleeping: make([]atomic.Bool, n),
		wakeCh:   make([]chan struct{}, n),
		spin:     spinBudget(n),
	}
	for w := 1; w < n; w++ {
		pp.wakeCh[w] = make(chan struct{}, 1)
		pp.wg.Add(1)
		go pp.worker(w)
	}
	return pp
}

// spinBudget picks the busy-wait budget for a pool of n workers: a few
// thousand checks when the host has enough schedulable CPUs to run them
// all, zero otherwise (park immediately; on a single CPU the peer can
// only progress once we yield).
func spinBudget(n int) int {
	if runtime.GOMAXPROCS(0) < n || runtime.NumCPU() < n {
		return 0
	}
	return 4096
}

// runPhase executes one component phase across all spans and returns
// after every worker has drained its share of the steal loop. Called by
// the coordinator, which participates as worker 0. If a pool worker
// panicked, the recovered value is rethrown here as a *PhasePanicError
// so it unwinds through Run on the engine's own goroutine.
func (pp *phasePool) runPhase(t0, t1 uint64) {
	n := pp.e.workers
	pp.t0, pp.t1 = t0, t1
	pp.cursor.Store(0)
	pp.remaining.Store(int32(n - 1))
	pp.seq.Add(1)
	for w := 1; w < n; w++ {
		if pp.sleeping[w].CompareAndSwap(true, false) {
			select {
			case pp.wakeCh[w] <- struct{}{}:
			default:
			}
		}
	}
	pp.runSpans(0)
	for i := 0; pp.remaining.Load() != 0; i++ {
		if i < pp.spin {
			continue
		}
		// Block until some phase posts completion. The token may be a
		// stale leftover (we previously observed remaining==0 by
		// spinning and left it unconsumed); the loop condition sorts
		// that out, and consuming it guarantees the next real post
		// finds room in the channel.
		<-pp.doneCh
	}
	for w := 1; w < n; w++ {
		if sl := &pp.e.wslots[w]; sl.panicVal != nil {
			panic(&PhasePanicError{Worker: w, Cycle: t0, Value: sl.panicVal, Stack: sl.panicStack})
		}
	}
}

// runSpans is one worker's share of a component phase: fire the phase
// hook, then claim spans off the shared cursor until none remain. Every
// worker claims in ascending span order, so which worker runs a span is
// pure scheduling — the spans themselves, and everything the merge
// later reads, are identical at any core count.
func (pp *phasePool) runSpans(w int) {
	e := pp.e
	if hook := e.opts.PhaseHook; hook != nil {
		hook(w, pp.t0)
	}
	nspans := int64(len(e.spans))
	for {
		i := pp.cursor.Add(1) - 1
		if i >= nspans {
			return
		}
		e.runSpan(int(i), pp.t0, pp.t1)
	}
}

// stop shuts the pool down. In the normal path no phase is in flight;
// on the coordinator-panic path workers may still be ticking, in which
// case they drain the steal loop, observe the bumped sequence, and
// exit.
func (pp *phasePool) stop() {
	pp.quit = true
	pp.seq.Add(1)
	for w := 1; w < pp.e.workers; w++ {
		if pp.sleeping[w].CompareAndSwap(true, false) {
			select {
			case pp.wakeCh[w] <- struct{}{}:
			default:
			}
		}
	}
	pp.wg.Wait()
}

func (pp *phasePool) worker(w int) {
	defer pp.wg.Done()
	// Label the goroutine so CPU profiles (and anything else reading
	// pprof labels) attribute phase work to its worker index.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("phase_worker", strconv.Itoa(w))))
	var last uint64
	for {
		last = pp.await(w, last)
		if pp.quit {
			return
		}
		pp.runSpansRecover(w)
		if pp.remaining.Add(-1) == 0 {
			select {
			case pp.doneCh <- struct{}{}:
			default:
			}
		}
	}
}

// runSpansRecover runs the worker's steal loop behind a recover fence:
// a panic — whether from a span tick or the lane drain inside it — is
// recorded in the worker's slot for the coordinator to rethrow, instead
// of killing the process from a goroutine nobody is recovering on. The
// remaining spans are claimed by the other workers, whose results the
// rethrow then discards.
func (pp *phasePool) runSpansRecover(w int) {
	defer func() {
		if v := recover(); v != nil {
			sl := &pp.e.wslots[w]
			sl.panicVal = v
			sl.panicStack = debug.Stack()
		}
	}()
	pp.runSpans(w)
}

// await blocks until the phase sequence moves past last and returns the
// new value. The park protocol cannot miss a wakeup: the worker
// publishes sleeping=true *before* rechecking seq, and the coordinator
// bumps seq *before* scanning the sleeping flags — so either the worker
// sees the new seq and never parks, or the coordinator sees the flag
// and posts a token.
func (pp *phasePool) await(w int, last uint64) uint64 {
	for i := 0; ; i++ {
		if s := pp.seq.Load(); s != last {
			return s
		}
		if i < pp.spin {
			continue
		}
		pp.sleeping[w].Store(true)
		if s := pp.seq.Load(); s != last {
			pp.sleeping[w].Store(false)
			return s
		}
		<-pp.wakeCh[w]
		i = -1 // token may be stale; re-verify from the top
	}
}
