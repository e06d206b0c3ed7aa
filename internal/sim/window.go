// The quantum-stepped run loop.
//
// Simulated time still advances one cycle at a time, but the host visits
// the machine a window of cycles at a time. The argument that makes this
// legal is the crossbar's latency. A packet a component pushes during
// cycle t waits in an injection queue until net.Tick(t+1) at the
// earliest and lands ICNTLatency cycles after that; nothing reads
// network state back (an L1D's outgoing queues drain at InjectionRate
// whatever the crossbar holds, partition responses are unbounded). So
// once net.Tick(t0) has run, every packet that can land in
// [t0, t0+ICNTLatency] is already in flight, stamped with its arrival
// cycle — and an SM or a partition, which talks to the rest of the
// machine only through the crossbar, can run those ICNTLatency+1 cycles
// on its own: deliver its arrivals at their stamps, tick, stamp what it
// sends, and skip locally over the cycles in which it provably has
// nothing to do. A closing pass then replays the window's net.Tick calls
// in order, pushing each cycle's packets as whole lanes in the order the
// per-cycle loop pushed them (partitions ascending, then SMs), so every
// injection, flit count and arrival stamp is the one that loop produced.
//
// Windows end at every cycle the loop has to look at the whole machine —
// the 32-cycle quiescence probe (which covers the 2048-cycle self-check
// grid), a metrics sampling boundary, MaxCycles — and every 4096 cycles
// the loop stops at a checkpoint (see checkpoint).
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/addr"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/stats"
)

// never is the "nothing scheduled" wake bound.
const never = ^uint64(0)

// arrival is one packet the crossbar delivers inside the open window,
// stamped with the cycle it lands on.
type arrival struct {
	req *mem.Request
	at  uint64
}

// cycleBits is the activity mask of cycles [from, to) of a window that
// starts at t0; an empty or inverted range is no bits.
func cycleBits(t0, from, to uint64) uint64 {
	if to <= from {
		return 0
	}
	return (^uint64(0) >> (64 - (to - from))) << (from - t0)
}

// runLoop advances the machine window by window until the launched work
// drains, the cycle budget runs out, or the machine wedges. Both Run and
// RunStream land here after assigning their blocks.
func (e *Engine) runLoop(ctx context.Context, name string) (*stats.Stats, error) {
	var (
		cycle      uint64 // last cycle simulated or jumped over
		lastActive uint64 // most recent cycle that did any work
		checked    uint64 // cycle>>12 of the last checkpoint
		drained    bool
	)
	for cycle < e.opts.MaxCycles {
		t0 := e.nextStart(cycle)
		if t0 > e.opts.MaxCycles {
			break
		}
		if t0>>12 != checked {
			checked = t0 >> 12
			if err := e.checkpoint(ctx, name, t0-1); err != nil {
				return nil, err
			}
		}
		t1 := e.windowEnd(t0)
		active := e.runWindow(t0, t1)
		if active != 0 {
			lastActive = t0 + uint64(63-bits.LeadingZeros64(active))
		}
		cycle = t1
		// Sampled self-checking: cheap enough to leave on for whole
		// suites (one sweep every selfCheckPeriod cycles) while still
		// catching a corrupted-state bug within ~2k cycles of its
		// introduction instead of at the end-of-run figures.
		if e.opts.SelfCheck && cycle&(selfCheckPeriod-1) == 0 {
			if err := e.selfCheck(name, cycle); err != nil {
				return nil, err
			}
		}
		if e.windowHook != nil {
			e.windowHook(t0, t1, active)
		}
		// Metrics sampling happens after the cycle's work (and after a
		// passing self-check) but before the quiescence break, so a
		// boundary coinciding with the drain cycle is captured here and
		// suppressed from the end-of-run row below.
		if e.mreg != nil && cycle%e.mevery == 0 {
			e.emitSample(cycle)
		}
		if cycle%32 == 0 {
			if e.quiescent() {
				drained = true
				break
			}
			// Wedge detection piggybacks on the quiescence boundary: work
			// outstanding but nothing has happened for a whole window —
			// a dropped wakeup, not a long latency (see DeadlockError).
			if cycle-lastActive >= deadlockWindow {
				return nil, &DeadlockError{Kernel: name, Cycle: cycle, Idle: cycle - lastActive}
			}
		}
	}
	// A warp whose window could not be filled or packed ended early, so
	// the run drained — but not the run that was asked for.
	if err := e.frontendErr(); err != nil {
		return nil, err
	}
	if !drained {
		// The budget ran out. A machine that happens to be quiescent here
		// finished between two probes and reports the first cycle past
		// the budget, as the per-cycle loop's exhausted counter did.
		cycle = e.opts.MaxCycles + 1
		if !e.quiescent() {
			return nil, &CycleLimitError{Kernel: name, MaxCycles: e.opts.MaxCycles}
		}
	}

	// A final full sweep at drain time, so even sub-period kernels get
	// checked at least once.
	if e.opts.SelfCheck {
		if err := e.selfCheck(name, cycle); err != nil {
			return nil, err
		}
	}

	// One final row at the drain (or timeout-boundary) cycle, so every
	// series ends with the simulation's closing counter values even when
	// the run length is not a multiple of the sampling period.
	if e.mreg != nil && e.mlast != cycle {
		e.emitSample(cycle)
	}

	total := e.collect()
	total.Cycles = cycle
	total.ICNTFlits += uint64(BackgroundFlitsPerKInsn * float64(total.Instructions) / 1000)
	if err := total.CheckConservation(); err != nil {
		return nil, err
	}
	return total, nil
}

// checkpoint is where a run gives way, every 4096 simulated cycles at
// most: it parks the goroutine on the shortest timer there is, then
// looks at the context and at the SMs' frontends. The park is the point.
// An engine loop never blocks, and with as many of them as Ps the Go
// scheduler reads the network only from sysmon, every 10 ms — a
// cancellation request sits in its socket that long. Parking (yielding
// is not enough: a yielded goroutine goes to the global run queue and is
// picked again before the poller is consulted) leaves this P with
// nothing runnable, and a P with nothing runnable polls the network
// before anything else. A run therefore hears its cancellation within
// one checkpoint interval of host time plus the handler's own work.
func (e *Engine) checkpoint(ctx context.Context, name string, cycle uint64) error {
	time.Sleep(time.Microsecond)
	select {
	case <-ctx.Done():
		return fmt.Errorf("sim: kernel %q aborted after %d cycles: %w", name, cycle, ctx.Err())
	default:
	}
	return e.frontendErr()
}

// nextStart picks the first cycle of the next window. That is cycle+1
// unless fast-forward may jump: nothing in the machine can do work
// before e.quiet, so every cycle up to it is one the per-cycle loop
// would have stepped through without touching any state or counter. The
// target is clamped so no boundary the loop has to observe is jumped —
// the self-check grid when enabled, the next 32-cycle quiescence probe
// when nothing is scheduled at all, MaxCycles+1 — and sampling
// boundaries inside the jump get their rows first: the machine cannot
// change across it, so the rows the per-cycle loop would have emitted
// there carry exactly the current values. (The boundary at the target
// itself is simulated and sampled normally.)
//
// A parked LD/ST head forbids the jump although it lets its SM skip:
// its stall cycles are simulated time that passes window by window.
func (e *Engine) nextStart(cycle uint64) uint64 {
	t := e.quiet
	if e.opts.DisableFastForward || e.parked || t <= cycle+1 {
		return cycle + 1
	}
	if t == never {
		// Nothing scheduled anywhere: only the quiescence check (or the
		// MaxCycles timeout for a wedged machine) can end the run. Jump
		// from boundary to boundary.
		t = cycle/32*32 + 32
	}
	if e.opts.SelfCheck {
		t = min(t, cycle/selfCheckPeriod*selfCheckPeriod+selfCheckPeriod)
	}
	t = min(t, e.opts.MaxCycles+1)
	if e.mreg != nil {
		for b := cycle - cycle%e.mevery + e.mevery; b < t; b += e.mevery {
			e.emitSample(b)
		}
	}
	return t
}

// windowEnd is the last cycle of the window that starts at t0. Windows
// sit on a fixed grid of simulated time — every 32-cycle block between
// two quiescence probes is cut into quanta from its first cycle, and cut
// again at the cycles the loop must look at the whole machine on (a
// sampling boundary, MaxCycles) — so where a window ends never depends
// on where a fast-forward jump happened to land in it.
func (e *Engine) windowEnd(t0 uint64) uint64 {
	off := (t0 - 1) % 32
	t1 := min(t0-1-off+min((off/e.quantum+1)*e.quantum, 32), e.opts.MaxCycles)
	if e.mreg != nil {
		t1 = min(t1, (t0+e.mevery-1)/e.mevery*e.mevery)
	}
	return t1
}

// runWindow simulates cycles t0..t1 and returns their activity bits (bit
// 0 is t0): a clear bit certifies that no component changed state or
// counters in that cycle, beyond clock fields.
//
//  1. Open: tick the crossbar for t0, then pop every packet that
//     lands in the window and bin it, with its stamp, by destination
//     component — one append per packet, no cache or MSHR work.
//  2. Component phase: every component runs through the whole window,
//     one after the other (runComponents).
//  3. Close: replay the crossbar cycle by cycle, handing it each cycle's
//     lanes (closeWindow).
func (e *Engine) runWindow(t0, t1 uint64) (active uint64) {
	if !e.opts.DisableFastForward && e.quiet > t1 {
		// Nothing can happen before the window is over; e.quiet and the
		// components' wake bounds stand. A parked head's stall cycles
		// still count as activity.
		if e.parked {
			active = cycleBits(t0, t0, t1+1)
		}
		return active
	}

	// An injection-queue packet means this network tick does real work.
	if e.net.HasWaiting() {
		active = 1
		e.net.Tick(t0)
	}
	P := len(e.parts)
	for {
		req, at := e.net.PopArrivedBy(interconnect.ToMem, t1)
		if req == nil {
			break
		}
		p := addr.PartitionOf(req.Addr, e.cfg.L1D.LineSize, P)
		e.inbox[p] = append(e.inbox[p], arrival{req, at})
	}
	for {
		resp, at := e.net.PopArrivedBy(interconnect.ToCore, t1)
		if resp == nil {
			break
		}
		e.inbox[P+resp.SM] = append(e.inbox[P+resp.SM], arrival{resp, at})
	}

	active |= e.runComponents(t0, t1)
	return active | e.closeWindow(t0, t1)
}

// closeWindow is the end of a window. Each lane was filled in component
// order, so handing the crossbar cycle c's lanes, then ticking it for
// c+1, reproduces the per-cycle loop's injection order — and hence every
// arrival stamp — exactly. It also folds the crossbar into the wake
// bound for the loop's fast-forward decisions.
func (e *Engine) closeWindow(t0, t1 uint64) (active uint64) {
	if e.sent > 0 || e.net.HasWaiting() {
		e.sent = 0
		for c := t0; c <= t1; c++ {
			lane := c - t0
			if len(e.outCore[lane]) > 0 {
				e.outCore[lane] = e.net.PushBatch(interconnect.ToCore, e.outCore[lane])
			}
			if len(e.outMem[lane]) > 0 {
				e.outMem[lane] = e.net.PushBatch(interconnect.ToMem, e.outMem[lane])
			}
			// The tick for t1+1 opens the next window.
			if c < t1 && e.net.HasWaiting() {
				active |= 2 << lane
				e.net.Tick(c + 1)
			}
		}
	}
	if e.net.HasWaiting() {
		e.quiet = t1 + 1
	} else if at, ok := e.net.NextArrival(); ok {
		e.quiet = min(e.quiet, at)
	}
	return active
}

// runComponents takes every component through a window: the partitions,
// then the SMs, each for the whole window (the per-cycle loop's relative
// order, which is what fills every lane in component order). It returns
// the window's activity bits and leaves the earliest wake bound in
// e.quiet and whether an SM holds a parked LD/ST head in e.parked. A
// component with no arrivals and nothing scheduled inside the window is
// passed over in O(1).
func (e *Engine) runComponents(t0, t1 uint64) (active uint64) {
	P := len(e.parts)
	e.quiet, e.parked = never, false
	for i := range e.parts {
		if e.due(i, t1) {
			active |= e.runPartition(i, t0, t1)
		}
		e.quiet = min(e.quiet, e.wake[i])
	}
	for j, s := range e.sms {
		i := P + j
		if e.due(i, t1) {
			active |= e.runSM(i, t0, t1)
		} else if s.Stalled() {
			// A parked head's skipped window is all stall cycles.
			active |= cycleBits(t0, t0, t1+1)
		}
		e.parked = e.parked || s.Stalled()
		e.quiet = min(e.quiet, e.wake[i])
	}
	return active
}

// due reports whether component i needs running in a window that ends at
// t1: always without fast-forward, otherwise when its wake bound falls
// inside the window or a packet arrives for it.
func (e *Engine) due(i int, t1 uint64) bool {
	return e.opts.DisableFastForward || e.wake[i] <= t1 || len(e.inbox[i]) > 0
}

// firstVisit is the first cycle of a window starting at t0 on which
// component i has anything to do: its wake bound or its first arrival
// (whose stamp is never before t0), whichever comes first.
func (e *Engine) firstVisit(i int, t0 uint64) uint64 {
	if e.opts.DisableFastForward {
		return t0
	}
	c := max(t0, e.wake[i])
	if in := e.inbox[i]; len(in) > 0 && in[0].at < c {
		c = in[0].at
	}
	return c
}

// runPartition runs partition i through cycles t0..t1: per visited
// cycle, what the per-cycle loop did — deliver the cycle's requests,
// tick if that does anything, hand the responses to the cycle's lane —
// and between visits, skip to the next cycle with a request arriving or
// an event due.
func (e *Engine) runPartition(i int, t0, t1 uint64) (active uint64) {
	p, in := e.parts[i], e.inbox[i]
	skip := !e.opts.DisableFastForward
	c := e.firstVisit(i, t0)
	for c <= t1 {
		act := false
		for len(in) > 0 && in[0].at <= c {
			p.Enqueue(in[0].req)
			in[0].req = nil
			in = in[1:]
			act = true
		}
		// A non-Busy partition's tick is a pure no-op and is skipped.
		if p.Busy(c) {
			p.Tick(c)
			act = true
		}
		lane := c - t0
		for resp := p.PopResponse(); resp != nil; resp = p.PopResponse() {
			e.outCore[lane] = append(e.outCore[lane], resp)
			e.sent++
		}
		if act {
			active |= 1 << lane
		}
		c++
		if skip && !p.Queued() {
			next := never
			if at, ok := p.NextEvent(); ok {
				next = at
			}
			if len(in) > 0 && in[0].at < next {
				next = in[0].at
			}
			c = max(c, next)
		}
	}
	e.inbox[i] = e.inbox[i][:0]
	e.wake[i] = c
	return active
}

// runSM runs SM i through cycles t0..t1 the same way: deliver the
// cycle's responses, tick unless Done, drain fetches into the cycle's
// lane under the injection-rate bound; then skip to the next response
// or the SM's own wake bound. A Done SM has no warps, no queued blocks
// and a drained cache, and nothing can re-activate it (blocks are
// assigned only before the loop), so its tick is skipped outright.
func (e *Engine) runSM(i int, t0, t1 uint64) (active uint64) {
	s, in := e.sms[i-len(e.parts)], e.inbox[i]
	l1d := s.L1D()
	skip := !e.opts.DisableFastForward
	c := e.firstVisit(i, t0)
	if s.Stalled() {
		// The cycles a parked head sleeps through are stall cycles.
		active |= cycleBits(t0, t0, min(c, t1+1))
	}
	for c <= t1 {
		act := false
		for len(in) > 0 && in[0].at <= c {
			l1d.OnResponse(in[0].req)
			in[0].req = nil
			in = in[1:]
			act = true
		}
		if !s.Done() && s.Tick(c) {
			act = true
		}
		lane := c - t0
		for k := 0; k < InjectionRate; k++ {
			out := l1d.PopOutgoing()
			if out == nil {
				break
			}
			e.outMem[lane] = append(e.outMem[lane], out)
			e.sent++
			act = true
		}
		if act {
			active |= 1 << lane
		}
		c++
		// The wake bound costs a scan of the warp state, so it is asked
		// for only after a cycle that did nothing — or nothing but hold a
		// parked head, whose stall cycles then count as activity.
		if stalled := s.Stalled(); skip && (!act || stalled) {
			if w, ok := s.NextWake(c - 1); ok {
				if len(in) > 0 && in[0].at < w {
					w = in[0].at
				}
				if w > c {
					if stalled {
						active |= cycleBits(t0, c, min(w, t1+1))
					}
					c = w
				}
			}
		}
	}
	e.inbox[i] = e.inbox[i][:0]
	e.wake[i] = c
	return active
}
