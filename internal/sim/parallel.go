// Phase-parallel ticking: the engine's second level of parallelism.
//
// The runner already parallelizes *across* simulations; this file
// parallelizes *inside* one. The component index space — L2 partitions
// first, then SMs — is cut into contiguous spans, and each cycle's
// component phase has the workers claim spans off a shared atomic
// cursor (deterministic work stealing): a worker stuck on a hot span
// simply stops claiming while the others drain the rest, so hot/idle
// imbalance never serializes the phase. Spans — not workers — own the
// delivery inboxes, the outbound lanes, and the fast-forward partials,
// so the simulation output depends only on the span layout (a pure
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

	"repro/internal/addr"
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

// spanState is one span's per-cycle communication state. The inboxes
// are filled serially (packet binning in the pre-phase, recycled-store
// routing in the previous cycle's merge) and consumed by whichever
// worker claims the span; the lanes are filled during the span's tick
// and handed off — an O(1) slice handoff per lane — by the serial
// merge. All buffers keep their backing arrays across cycles, so the
// steady state allocates nothing. The pad keeps neighboring states on
// separate cache lines so concurrent writers don't false-share.
type spanState struct {
	inMem  []*mem.Request // arrived requests for this span's partitions
	inCore []*mem.Request // arrived responses for this span's SMs
	inPut  []*mem.Request // recycled stores homed to this span's SM pools

	outMem  []*mem.Request // SM fetches, per-SM injection-rate bounded
	outCore []*mem.Request // partition responses, in partition order
	outPut  []*mem.Request // recycled stores drained from partitions

	active bool
	// mustTick vetoes fast-forwarding: some component in the span needs
	// per-cycle ticking (a draining LD/ST queue, a queued partition
	// request).
	mustTick bool
	// next is the span's earliest scheduled component event, or
	// ^uint64(0) when none. Only meaningful when the whole cycle was
	// inactive — which is the only time the run loop reads it.
	next uint64
	// busy counts cycles in which this span did real work — the
	// load-imbalance signal behind the phase.span<i>.busy_cycles
	// metrics column. Deterministic: it depends on the span layout,
	// never on worker scheduling.
	busy uint64
	_    [40]byte
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
	// Cycle is the simulated cycle whose component phase panicked.
	Cycle uint64
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

func (e *PhasePanicError) Error() string {
	return fmt.Sprintf("sim: phase worker %d panicked at cycle %d: %v", e.Worker, e.Cycle, e.Value)
}

// tickSpan advances one span through a full component phase: apply the
// span's delivery inboxes, tick its components (partitions before SMs —
// the serial engine's relative order), then drain outbound packets into
// the span's lanes. Every mutation is local to the span's components
// and its own spanState, so any worker may run it without locks. When
// the span did no work, its fast-forward partial (mustTick / earliest
// next event) is computed in the same pass, which is what lets
// nextInterestingCycle run without a second component sweep.
func (e *Engine) tickSpan(si int, now uint64) {
	st := &e.spanSt[si]
	if e.spanHook != nil {
		e.spanHook(si, now)
	}

	// Recycled stores routed here by the previous cycle's merge return
	// to their issuing SM's pool before that SM ticks again.
	for j, r := range st.inPut {
		st.inPut[j] = nil
		e.pools[r.SM].Put(r)
	}
	st.inPut = st.inPut[:0]
	// Batched delivery: the serial pre-phase only binned the arrived
	// packets; the MSHR/L2 work of applying them happens here, span-
	// locally. Bin order preserves the crossbar's per-direction
	// arrival order, so each component sees deliveries exactly as the
	// serial engine ordered them.
	for j, r := range st.inMem {
		st.inMem[j] = nil
		p := addr.PartitionOf(r.Addr, e.cfg.L1D.LineSize, len(e.parts))
		e.parts[p].Enqueue(r)
	}
	st.inMem = st.inMem[:0]
	for j, r := range st.inCore {
		st.inCore[j] = nil
		e.sms[r.SM].L1D().OnResponse(r)
	}
	st.inCore = st.inCore[:0]

	sp := e.spans[si]
	P := len(e.parts)
	active := false
	for i := sp.lo; i < sp.hi && i < P; i++ {
		// A non-Busy partition's tick is a pure no-op and is skipped.
		if p := e.parts[i]; p.Busy(now) {
			p.Tick(now)
			active = true
		}
	}
	// A Done SM has no warps, no queued blocks, and a drained cache;
	// nothing can re-activate it (blocks are assigned only before the
	// cycle loop), so its tick is skipped outright.
	for i := max(sp.lo, P); i < sp.hi; i++ {
		if s := e.sms[i-P]; !s.Done() && s.Tick(now) {
			active = true
		}
	}

	// Drain outbound lanes: partition responses and recycled stores in
	// partition order, then SM fetches under the injection-rate bound in
	// SM order. Spans ascend the component index space, so the merge's
	// fixed span order concatenates these into exactly the serial
	// engine's per-direction push order.
	for i := sp.lo; i < sp.hi && i < P; i++ {
		p := e.parts[i]
		for {
			resp := p.PopResponse()
			if resp == nil {
				break
			}
			st.outCore = append(st.outCore, resp)
		}
		if rc := e.recyclers[i]; rc.Len() > 0 {
			st.outPut = rc.DrainTo(st.outPut)
		}
	}
	for i := max(sp.lo, P); i < sp.hi; i++ {
		s := e.sms[i-P]
		for k := 0; k < e.opts.InjectionRate; k++ {
			out := s.L1D().PopOutgoing()
			if out == nil {
				break
			}
			st.outMem = append(st.outMem, out)
			active = true
		}
	}

	st.active = active
	st.mustTick = false
	st.next = ^uint64(0)
	if active {
		st.busy++
		// The partial is never read for an active cycle.
		return
	}
	for i := sp.lo; i < sp.hi && i < P; i++ {
		p := e.parts[i]
		if p.Queued() {
			st.mustTick = true
			return
		}
		if a, ok := p.NextEvent(); ok && a < st.next {
			st.next = a
		}
	}
	for i := max(sp.lo, P); i < sp.hi; i++ {
		s := e.sms[i-P]
		if s.Done() {
			continue
		}
		w, ok := s.NextWake(now)
		if !ok {
			st.mustTick = true
			return
		}
		if w < st.next {
			st.next = w
		}
	}
}

// runSpansSerial is the Cores=1 component phase: the same hook and span
// sweep as the pool path, with no synchronization at all.
func (e *Engine) runSpansSerial(now uint64) {
	if hook := e.opts.PhaseHook; hook != nil {
		hook(0, now)
	}
	for i := range e.spans {
		e.tickSpan(i, now)
	}
}

// phasePool is the persistent worker pool behind Options.Cores > 1. It
// lives for one Run: workers park between phases and exit when stop
// flips quit and bumps the sequence one last time.
type phasePool struct {
	e *Engine
	// seq announces phases: each bump releases the workers into one
	// steal loop. Its atomic store/load pair also publishes the plain
	// now and quit fields and the reset cursor.
	seq  atomic.Uint64
	now  uint64
	quit bool
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
func (pp *phasePool) runPhase(now uint64) {
	n := pp.e.workers
	pp.now = now
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
			panic(&PhasePanicError{Worker: w, Cycle: now, Value: sl.panicVal, Stack: sl.panicStack})
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
	now := pp.now
	if hook := e.opts.PhaseHook; hook != nil {
		hook(w, now)
	}
	nspans := int64(len(e.spans))
	for {
		i := pp.cursor.Add(1) - 1
		if i >= nspans {
			return
		}
		e.tickSpan(int(i), now)
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
