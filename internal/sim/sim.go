// Package sim is the simulation engine: it wires SMs, their L1D caches,
// the interconnect, the L2 partitions and DRAM channels into one machine,
// dispatches a kernel's thread blocks, and steps everything cycle by
// cycle until the kernel drains.
package sim

import (
	"context"
	"fmt"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/interconnect"
	"repro/internal/l2"
	"repro/internal/mem"
	"repro/internal/metrics"
	policypkg "repro/internal/policy"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options tune engine behavior beyond the hardware configuration.
type Options struct {
	// MaxCycles aborts runaway simulations; 0 means the default (50M).
	MaxCycles uint64
	// BackgroundFlitsPerKInsn models L1I/L1C/L1T traffic sharing the
	// interconnect (§6.4): flits added per 1000 thread instructions.
	// nil means the default (60); point at an explicit value — including
	// 0, e.g. sim.Float(0), to disable the model. Negative values are
	// treated as 0.
	BackgroundFlitsPerKInsn *float64
	// InjectionRate is the max packets one L1D hands to the ICNT per
	// cycle; 0 means the default (2).
	InjectionRate int
	// SelfCheck enables sampled per-cycle verification of the DLP
	// invariants the paper's correctness rests on: PL counters within
	// the PDBits field, protected lines never exceeding a set's
	// associativity, PDPT protection distances within bounds, VTA
	// geometry matching the TDA, and mid-run stats conservation.
	// Violations surface as typed *core.InvariantError values wrapped
	// with the cycle they were caught at. The checks never mutate
	// state, so an enabled run produces byte-identical results to a
	// disabled one — which is also why SelfCheck is excluded from the
	// runner's cache key.
	SelfCheck bool
	// Cores sets the engine's internal phase parallelism: how many
	// shards tick the SMs and L2 partitions concurrently each cycle.
	// 0 or 1 means fully serial (no extra goroutines). Results are
	// bit-identical at every value — the parallel phase only touches
	// component-local state, and all cross-component interaction runs
	// serially in fixed SM/partition order (see DESIGN.md §10) — so
	// Cores, like SelfCheck, is excluded from the runner's cache key.
	// Values beyond the component count are clamped.
	Cores int
	// DisableFastForward forces the run loop to step every cycle
	// instead of jumping over provably idle windows. Fast-forwarding is
	// unobservable by construction, so results are bit-identical either
	// way — which is exactly what the conformance corpus and the
	// differential fuzzer re-prove on every geometry they visit by
	// running a ff-disabled engine against the default one. Like
	// SelfCheck and Cores it is execution policy, not simulation input,
	// and is excluded from the runner's cache key.
	DisableFastForward bool
	// PhaseHook, when non-nil, is called by every shard (the
	// coordinator is shard 0) at the top of each component phase with
	// the shard's worker index and the current cycle. It is a test and
	// fault-injection seam — e.g. proving a panic on a phase worker
	// surfaces as a typed error — and must not mutate engine state. It
	// never affects results and is excluded from cache keys.
	PhaseHook func(worker int, cycle uint64)
	// Metrics enables cycle-domain observability: every
	// Metrics.Interval() cycles the engine samples a registry of
	// counters and gauges registered by its components (L1D, VTA, PDPT,
	// MSHR queues, L2 partitions, crossbar, SM schedulers) into
	// Metrics.Sink. Cycles skipped by fast-forward still get their
	// sampling-boundary rows: a skipped cycle is provably a no-op, so
	// the engine emits the row with the state at the jump point,
	// attributed to the boundary cycle. Sampled series are therefore
	// identical at every Cores value and with fast-forward disabled.
	// Sampling reads counters the components maintain anyway, never
	// perturbs simulation state, and a nil Metrics (or nil Sink) costs
	// one nil check per boundary — so Metrics, like SelfCheck, is
	// excluded from the runner's cache key.
	Metrics *metrics.Config
}

// Float returns a pointer to v, for populating optional Options fields:
// Options{BackgroundFlitsPerKInsn: sim.Float(0)} disables background
// traffic, which the old zero-means-default encoding could not express.
func Float(v float64) *float64 { return &v }

func (o Options) withDefaults() Options {
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
	switch {
	case o.BackgroundFlitsPerKInsn == nil:
		o.BackgroundFlitsPerKInsn = Float(60)
	case *o.BackgroundFlitsPerKInsn < 0:
		o.BackgroundFlitsPerKInsn = Float(0)
	default:
		// Private copy so the engine never aliases caller memory.
		o.BackgroundFlitsPerKInsn = Float(*o.BackgroundFlitsPerKInsn)
	}
	if o.InjectionRate == 0 {
		o.InjectionRate = 2
	}
	if o.Cores < 1 {
		o.Cores = 1
	}
	return o
}

// Canonical resolves every default and sentinel to its effective value,
// so two Options that drive the engine identically compare — and hash —
// identically. The runner's result cache keys on this form.
func (o Options) Canonical() Options { return o.withDefaults() }

// Engine is one simulated GPU.
type Engine struct {
	cfg    *config.Config
	policy config.Policy
	opts   Options

	sms   []*sm.SM
	net   *interconnect.Network
	parts []*l2.Partition
	netSt *stats.Stats
	// partSt holds one Stats per L2 partition. Partitions tick
	// concurrently under Options.Cores > 1, so they cannot share one
	// counter block; the per-partition sums are folded in collect,
	// where uint64 addition makes the totals independent of core count.
	partSt []*stats.Stats

	// pools recycle mem.Request objects, one unlocked pool per SM: an
	// SM allocates from and returns loads to its own pool during its
	// span's tick. Store requests consumed by L2 partitions are
	// deferred into per-partition recyclers; the partition's span
	// drains them into its outPut lane, the serial merge bins them by
	// destination span (Request.SM), and the destination span returns
	// them to the owning pool at the top of the next component phase —
	// so pools stay unlocked and the steady state allocation-free at
	// any core count.
	pools     []*mem.Pool
	recyclers []*mem.Recycler

	// workers is the effective phase parallelism (Options.Cores clamped
	// to the component count); spans is the contiguous partition of the
	// unified component index space the workers steal from, and spanSt
	// holds each span's inboxes, lanes, activity flag and fast-forward
	// partial. partSpan/smSpan map a component to its owning span for
	// the serial binning steps.
	workers  int
	spans    []span
	spanSt   []spanState
	partSpan []int32
	smSpan   []int32
	// wslots records panics recovered on pool workers (index ≥ 1); the
	// coordinator rethrows them after the phase barrier.
	wslots []workerSlot
	// pp is the persistent phase-worker pool, non-nil only while Run
	// executes with more than one worker.
	pp *phasePool

	// mreg/msink/mevery/mlabel drive the optional cycle-domain metrics
	// sampling (Options.Metrics); mreg is nil when sampling is off, so
	// the disabled cost in the run loop is a single nil check. mlast
	// remembers the last sampled cycle so the end-of-run row is not
	// duplicated when the drain cycle sits on a sampling boundary.
	mreg   *metrics.Registry
	msink  metrics.Sink
	mevery uint64
	mlabel string
	mlast  uint64

	// testHook, when set by a test in this package, observes every
	// stepped cycle (skipped cycles are not observed — that they carry
	// no observable work is exactly what the activity property tests
	// verify).
	testHook func(cycle uint64, active bool)
	// spanHook, when set by a test in this package, observes every span
	// claim of every component phase (it may run concurrently on
	// several workers). The steal-schedule tests use it to prove each
	// span is claimed exactly once per stepped cycle.
	spanHook func(span int, cycle uint64)
	// disableFastForward forces the run loop to step every cycle; the
	// differential property tests use it to prove fast-forwarding
	// changes nothing but wall-clock time.
	disableFastForward bool
}

// New builds an engine for the configuration and L1D policy.
func New(cfg *config.Config, policy config.Policy, opts Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, ok := policypkg.Lookup(policy); !ok {
		return nil, fmt.Errorf("sim: %q is not a registered policy (want %s)", policy, policypkg.Usage())
	}
	opts = opts.withDefaults()
	e := &Engine{
		cfg:                cfg,
		policy:             policy,
		opts:               opts,
		netSt:              &stats.Stats{},
		disableFastForward: opts.DisableFastForward,
	}
	e.pools = make([]*mem.Pool, cfg.NumSMs)
	e.sms = make([]*sm.SM, cfg.NumSMs)
	for i := range e.sms {
		e.pools[i] = mem.NewPool()
		e.sms[i] = sm.New(cfg, i, policy, e.pools[i])
	}
	e.net = interconnect.New(cfg.ICNTLatency, cfg.ICNTBandwidthFlits,
		cfg.ICNTFlitBytes, cfg.L1D.LineSize, e.netSt)
	e.partSt = make([]*stats.Stats, cfg.NumPartitions)
	e.recyclers = make([]*mem.Recycler, cfg.NumPartitions)
	e.parts = make([]*l2.Partition, cfg.NumPartitions)
	for i := range e.parts {
		e.partSt[i] = &stats.Stats{}
		e.recyclers[i] = &mem.Recycler{}
		e.parts[i] = l2.New(cfg, e.partSt[i], nil)
		e.parts[i].SetRecycler(e.recyclers[i])
	}
	// Work-stealing spans over the unified component index space:
	// partitions first, then SMs. Workers beyond the component count
	// could never have work and are clamped; the span count gives each
	// worker a few spans to claim (spansPerWorker) so one hot span
	// doesn't serialize a phase, while keeping the serial lane merge
	// O(spans). A serial engine uses a single span — one inbox apply,
	// one sweep, one merge handoff per direction.
	total := cfg.NumSMs + cfg.NumPartitions
	cores := opts.Cores
	if cores > total {
		cores = total
	}
	e.workers = cores
	nspans := 1
	if cores > 1 {
		nspans = min(cores*spansPerWorker, total)
	}
	e.spans = makeSpans(total, nspans)
	e.spanSt = make([]spanState, nspans)
	e.wslots = make([]workerSlot, cores)
	e.partSpan = make([]int32, cfg.NumPartitions)
	e.smSpan = make([]int32, cfg.NumSMs)
	for si, sp := range e.spans {
		for i := sp.lo; i < sp.hi; i++ {
			if i < cfg.NumPartitions {
				e.partSpan[i] = int32(si)
			} else {
				e.smSpan[i-cfg.NumPartitions] = int32(si)
			}
		}
	}
	if opts.Metrics.Enabled() {
		e.registerMetrics(opts.Metrics)
	}
	return e, nil
}

// Run executes the kernel to completion and returns aggregated stats.
// The context is checked periodically inside the cycle loop, so a
// cancelled sweep stops within a few thousand simulated cycles instead
// of running its kernels to completion.
func (e *Engine) Run(ctx context.Context, k *trace.Kernel) (*stats.Stats, error) {
	// A kernel precomputed for this line size is left as it is; any other
	// is packed here, once, rather than warp by warp at admission. Packing
	// is also where Kernel.Validate's rules are enforced — the streamed
	// frontend's windows go through the same op builder — so a shared
	// kernel is not walked again for every job.
	if err := k.Pack(e.cfg.L1D.LineSize, e.cfg.WarpSize); err != nil {
		return nil, err
	}
	for i, b := range k.Blocks {
		if len(b.Warps) > e.cfg.MaxWarpsPerSM {
			return nil, &LaunchError{Kernel: k.Name, Detail: fmt.Sprintf(
				"block %d has %d warps but an SM holds at most %d resident",
				i, len(b.Warps), e.cfg.MaxWarpsPerSM)}
		}
	}
	for i, b := range k.Blocks {
		e.sms[i%len(e.sms)].AssignBlock(b)
	}
	return e.runLoop(ctx, k.Name)
}

// RunStream executes a lazily generated kernel stream to completion.
// It is Run with the launch shape read from the stream instead of a
// materialized kernel: blocks round-robin onto SMs in the same order,
// and each SM pulls instruction windows through per-warp cursors as
// warps advance. Stats are bit-identical to Run on the materialized
// equivalent (see trace.Materialize).
func (e *Engine) RunStream(ctx context.Context, src trace.Stream) (*stats.Stats, error) {
	name := src.Name()
	blocks := src.Blocks()
	if blocks == 0 {
		return nil, fmt.Errorf("kernel %q has no blocks", name)
	}
	for bi := 0; bi < blocks; bi++ {
		warps := src.Warps(bi)
		if warps == 0 {
			return nil, fmt.Errorf("kernel %q block %d has no warps", name, bi)
		}
		if warps > e.cfg.MaxWarpsPerSM {
			return nil, &LaunchError{Kernel: name, Detail: fmt.Sprintf(
				"block %d has %d warps but an SM holds at most %d resident",
				bi, warps, e.cfg.MaxWarpsPerSM)}
		}
	}
	for bi := 0; bi < blocks; bi++ {
		e.sms[bi%len(e.sms)].AssignStream(src, bi)
	}
	return e.runLoop(ctx, name)
}

// runLoop steps the machine until the launched work drains, the cycle
// budget runs out, or the machine wedges. Both Run and RunStream land
// here after assigning their blocks.
func (e *Engine) runLoop(ctx context.Context, name string) (*stats.Stats, error) {
	// With more than one worker, spin up the persistent phase-worker
	// pool for the duration of the run. The deferred stop also runs on
	// the panic path (a coordinator panic unwinding through Run), so
	// worker goroutines never outlive the run that spawned them.
	if e.workers > 1 {
		pp := newPhasePool(e)
		e.pp = pp
		defer func() {
			pp.stop()
			e.pp = nil
		}()
	}

	var cycle uint64
	lastActive := uint64(0) // most recent cycle that did any work
	for cycle = 1; cycle <= e.opts.MaxCycles; cycle++ {
		if cycle&4095 == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("sim: kernel %q aborted after %d cycles: %w",
					name, cycle, ctx.Err())
			default:
			}
			if err := e.frontendErr(); err != nil {
				return nil, err
			}
		}
		active := e.step(cycle)
		if active {
			lastActive = cycle
		}
		// Sampled self-checking: cheap enough to leave on for whole
		// suites (one sweep every selfCheckPeriod cycles) while still
		// catching a corrupted-state bug within ~2k cycles of its
		// introduction instead of at the end-of-run figures.
		if e.opts.SelfCheck && cycle&(selfCheckPeriod-1) == 0 {
			if err := e.selfCheck(name, cycle); err != nil {
				return nil, err
			}
		}
		if e.testHook != nil {
			e.testHook(cycle, active)
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
				break
			}
			// Wedge detection piggybacks on the quiescence boundary: work
			// outstanding but nothing has happened for a whole window —
			// a dropped wakeup, not a long latency (see DeadlockError).
			if cycle-lastActive >= deadlockWindow {
				return nil, &DeadlockError{Kernel: name, Cycle: cycle, Idle: cycle - lastActive}
			}
		}
		// Fast-forward: when this cycle did no work, every following
		// cycle up to the machine's next scheduled event is provably
		// identical no-op, so jump the clock there directly. The target
		// is clamped so no periodic boundary (context check, self-check,
		// quiescence check when nothing is scheduled) is ever skipped —
		// skipped cycles are exactly the ones the unoptimized loop would
		// have stepped through without touching any state or counter.
		if !active && !e.disableFastForward {
			if next, ok := e.nextInterestingCycle(cycle); ok && next > cycle+1 {
				// Attribute sampling boundaries inside the skipped window
				// to their boundary cycle before jumping: the machine
				// state cannot change across the window (each skipped
				// cycle is a proven no-op), so the rows the unoptimized
				// loop would have emitted at those boundaries carry
				// exactly the current values. The boundary at next
				// itself, if any, is stepped and sampled normally.
				if e.mreg != nil {
					for b := cycle - cycle%e.mevery + e.mevery; b < next; b += e.mevery {
						e.emitSample(b)
					}
				}
				cycle = next - 1
			}
		}
	}
	// A warp whose window could not be packed ended early, so the run
	// drained — but not the run that was asked for.
	if err := e.frontendErr(); err != nil {
		return nil, err
	}
	if cycle > e.opts.MaxCycles {
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
	total.ICNTFlits += uint64(*e.opts.BackgroundFlitsPerKInsn * float64(total.Instructions) / 1000)
	if err := total.CheckConservation(); err != nil {
		return nil, err
	}
	return total, nil
}

// frontendErr is the first instruction-packing failure any SM's warps
// ran into (a wrapped *trace.PackError or *trace.InstrError), nil when
// there is none.
func (e *Engine) frontendErr() error {
	for _, s := range e.sms {
		if err := s.FrontendErr(); err != nil {
			return err
		}
	}
	return nil
}

// CycleLimitError reports a kernel that was still making progress when
// it ran out of its MaxCycles budget. It is typed so mechanized
// callers (the conformance fuzzer) can tell "this configuration is too
// slow for the budget" — a property of the input, to be skipped or
// re-run with a larger budget — from an engine failure. A wedged
// engine does NOT produce this error: no-progress cycles trip the
// quiescence check or the wall-clock deadline instead.
type CycleLimitError struct {
	Kernel    string
	MaxCycles uint64
}

func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("sim: kernel %q did not finish within %d cycles", e.Kernel, e.MaxCycles)
}

// DeadlockError reports a wedged machine: warps or requests still
// outstanding, but no component has done any work for deadlockWindow
// consecutive cycles. Every latency in the simulated machine — DRAM,
// queues, protection lifetimes, sampling windows — is orders of
// magnitude below the window, so a gap this long can only mean a
// dropped wakeup or an unservable request, never a slow configuration
// (contrast CycleLimitError). The fuzzer classifies this as a hang
// without waiting for the wall-clock deadline.
type DeadlockError struct {
	Kernel string
	Cycle  uint64 // cycle at which the deadlock was declared
	Idle   uint64 // consecutive cycles with no activity
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: kernel %q deadlocked: no activity for %d cycles (at cycle %d) with work outstanding",
		e.Kernel, e.Idle, e.Cycle)
}

// deadlockWindow is how many consecutive no-op cycles the run loop
// tolerates before declaring the machine wedged. The longest
// legitimate quiet stretch is a full DRAM round trip behind every
// queue in the machine — thousands of cycles — so 2^20 leaves three
// orders of magnitude of slack.
const deadlockWindow uint64 = 1 << 20

// LaunchError reports a kernel that cannot run on the configured
// machine — e.g. a thread block with more warps than one SM can hold
// resident. Real hardware rejects such launches synchronously; without
// this check the block would sit unadmitted forever and the run would
// wedge (the SM deliberately never splits a block, see
// internal/sm TestOversizedBlockNeverAdmitted).
type LaunchError struct {
	Kernel string
	Detail string
}

func (e *LaunchError) Error() string {
	return fmt.Sprintf("sim: kernel %q cannot launch: %s", e.Kernel, e.Detail)
}

// selfCheckPeriod is the sampling interval (in core cycles) of the
// SelfCheck invariant sweeps. Must be a power of two.
const selfCheckPeriod = 2048

// selfCheck sweeps every SM's L1D for violated DLP invariants and wraps
// the first finding with the cycle it was caught at. The typed
// *core.InvariantError stays reachable through errors.As. It also
// validates the engine's O(1) activity accounting (liveWarps counters,
// counter-form quiescence) against full sweeps, so the fast-path
// bookkeeping cannot silently drift from the state it summarizes.
func (e *Engine) selfCheck(name string, cycle uint64) error {
	for i, s := range e.sms {
		if err := s.L1D().CheckInvariants(); err != nil {
			return fmt.Errorf("sim: kernel %q self-check failed at cycle %d (SM %d): %w",
				name, cycle, i, err)
		}
	}
	if err := e.checkActivity(); err != nil {
		return fmt.Errorf("sim: kernel %q self-check failed at cycle %d: %w", name, cycle, err)
	}
	return nil
}

// step advances the whole machine one core cycle. Core, ICNT and L2 run
// in the 650 MHz domain; the DRAM channels convert to the 924 MHz memory
// clock internally (Table 1). It reports whether the cycle did any real
// work: a false return certifies that no component changed state or
// counters (beyond clock fields), which is the precondition for the
// caller's fast-forward. Idle components are skipped via their O(1)
// activity accounting — a Done SM or a non-Busy partition ticks to the
// exact same state the full tick would have produced.
//
// The cycle is phase-structured so the component ticks can run on
// multiple workers with bit-identical output at any core count, and so
// the serial portions do O(spans) — not O(SMs + partitions + packets) —
// heavy work:
//
//  1. Serial binning pre-phase: tick the interconnect, then pop every
//     arrived packet and bin it by destination span — one pointer
//     append per packet, no cache or MSHR work. Pushes go to the
//     network's injection queues, which PopArrived never observes in
//     the same cycle, so hoisting delivery ahead of the component ticks
//     is equivalent to the old interleaved order.
//  2. Component phase (stolen spans, parallel): each claimed span first
//     applies its inboxes — recycled stores back to their SM pools,
//     binned requests into partitions, binned responses into L1D MSHRs
//     (the expensive half of delivery, now parallel) — then ticks its
//     components, then drains outbound packets into its own lanes:
//     partition responses and recycled stores in partition order, SM
//     fetches under the injection-rate bound in SM order. Ticks and
//     lane drains only touch component-local and span-local state, so
//     spans share nothing.
//  3. Serial lane merge, in fixed ascending span order: each non-empty
//     outbound lane is handed to the network as one segment (an O(1)
//     slice handoff returning a recycled buffer), and recycled stores
//     are binned to their destination span's inbox for the next phase.
//     Spans ascend the component index space and each lane was filled
//     in component order, so the concatenated per-direction injection
//     order — and hence every packet sequence number — is exactly the
//     serial engine's.
func (e *Engine) step(now uint64) bool {
	// An injection-queue packet means this network tick does real work.
	active := e.net.HasWaiting()
	e.net.Tick(now)

	// Bin arrived request packets by their partition's span.
	for {
		req := e.net.PopArrived(interconnect.ToMem)
		if req == nil {
			break
		}
		p := addr.PartitionOf(req.Addr, e.cfg.L1D.LineSize, len(e.parts))
		st := &e.spanSt[e.partSpan[p]]
		st.inMem = append(st.inMem, req)
		active = true
	}

	// Bin arrived responses by the issuing SM's span.
	for {
		resp := e.net.PopArrived(interconnect.ToCore)
		if resp == nil {
			break
		}
		st := &e.spanSt[e.smSpan[resp.SM]]
		st.inCore = append(st.inCore, resp)
		active = true
	}

	// Component phase. With one worker it runs inline; otherwise the
	// coordinator claims spans alongside the pool's workers, and the
	// barrier inside runPhase orders their writes before the merge
	// below.
	if e.pp != nil {
		e.pp.runPhase(now)
	} else {
		e.runSpansSerial(now)
	}

	// Serial lane merge, fixed span order.
	for i := range e.spanSt {
		st := &e.spanSt[i]
		if st.active {
			active = true
		}
		if len(st.outCore) > 0 {
			st.outCore = e.net.PushBatch(interconnect.ToCore, st.outCore)
		}
		if len(st.outMem) > 0 {
			st.outMem = e.net.PushBatch(interconnect.ToMem, st.outMem)
		}
		// Route recycled stores to their issuing SM's span; the span
		// applies them at the top of the next phase. Bounded: each
		// partition retires at most one request per cycle, so this loop
		// moves at most NumPartitions pointers.
		for j, r := range st.outPut {
			st.outPut[j] = nil
			d := &e.spanSt[e.smSpan[r.SM]]
			d.inPut = append(d.inPut, r)
		}
		st.outPut = st.outPut[:0]
	}
	return active
}

// nextInterestingCycle computes the earliest future cycle at which the
// machine can do real work, assuming the current cycle was fully
// inactive. ok=false means some component needs per-cycle ticking (a
// draining LD/ST queue, a queued partition request, a ready warp) and
// no jump is safe. The component sweep is pre-folded: each span
// recorded its partial minimum (or a mustTick veto) while ticking, so
// this only folds len(spans) partials with the serial network checks.
// The partials are valid exactly when this is called — the run loop
// only fast-forwards inactive cycles, and an inactive cycle means every
// span took the idle path that computes them. The result is clamped to
// the periodic boundaries the run loop must still observe: the
// 4096-cycle context check, the self-check sampling grid when enabled,
// the next 32-cycle quiescence check when no event is scheduled at all,
// and MaxCycles+1.
func (e *Engine) nextInterestingCycle(now uint64) (uint64, bool) {
	const inf = ^uint64(0)
	if e.net.HasWaiting() {
		return 0, false
	}
	t := inf
	if a, ok := e.net.NextArrival(); ok {
		t = a
	}
	for i := range e.spanSt {
		st := &e.spanSt[i]
		if st.mustTick {
			return 0, false
		}
		if st.next < t {
			t = st.next
		}
	}
	if t == inf {
		// Nothing scheduled anywhere: only the quiescence check (or the
		// MaxCycles timeout for a wedged machine) can end the run. Jump
		// from boundary to boundary.
		t = now/32*32 + 32
	}
	if b := now/4096*4096 + 4096; t > b {
		t = b
	}
	if e.opts.SelfCheck {
		if b := now/selfCheckPeriod*selfCheckPeriod + selfCheckPeriod; t > b {
			t = b
		}
	}
	if t > e.opts.MaxCycles+1 {
		t = e.opts.MaxCycles + 1
	}
	return t, true
}

// quiescent reports whether every component has fully drained. Every
// term is O(1): SM completion is counter-based (sm.Done), and the
// network/partition checks are length comparisons. The sweep-based
// equivalent lives in quiescentDeep and is cross-checked against this
// form by the sampled self-checks and the activity property tests.
func (e *Engine) quiescent() bool {
	for _, s := range e.sms {
		if !s.Done() {
			return false
		}
	}
	if e.net.Pending() {
		return false
	}
	for _, p := range e.parts {
		if p.Pending() {
			return false
		}
	}
	return true
}

// quiescentDeep recomputes quiescence from first principles — sweeping
// every warp slot instead of trusting the liveWarps counters. The run
// loop never calls it; it exists so self-checks and tests can prove the
// counter form equivalent.
func (e *Engine) quiescentDeep() bool {
	for _, s := range e.sms {
		if !s.DoneSweep() {
			return false
		}
	}
	if e.net.Pending() {
		return false
	}
	for _, p := range e.parts {
		if p.Pending() {
			return false
		}
	}
	return true
}

// checkActivity validates the O(1) activity accounting against full
// sweeps: per-SM counter integrity and engine-level quiescence
// agreement. Run by the sampled self-checks, so fault-injection suites
// exercising SelfCheck verify it continuously.
func (e *Engine) checkActivity() error {
	for i, s := range e.sms {
		if err := s.CheckActivity(); err != nil {
			return fmt.Errorf("SM %d activity accounting: %w", i, err)
		}
	}
	if q, d := e.quiescent(), e.quiescentDeep(); q != d {
		return fmt.Errorf("quiescent()=%v but quiescentDeep()=%v", q, d)
	}
	return nil
}

// collect sums per-component stats into one Stats. The partition order
// of the fold is fixed, and every counter is a uint64 sum, so the total
// is identical at every core count.
func (e *Engine) collect() *stats.Stats {
	total := &stats.Stats{}
	for _, s := range e.sms {
		total.Add(s.Stats())
		total.Add(s.L1D().Stats())
	}
	total.Add(e.netSt)
	for _, st := range e.partSt {
		total.Add(st)
	}
	return total
}

// RunOnce is the package-level convenience entry point: build an engine
// and run one kernel under one policy.
func RunOnce(ctx context.Context, cfg *config.Config, policy config.Policy, k *trace.Kernel, opts Options) (*stats.Stats, error) {
	e, err := New(cfg, policy, opts)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, k)
}

// RunStreamOnce is RunOnce for a lazily generated stream.
func RunStreamOnce(ctx context.Context, cfg *config.Config, policy config.Policy, src trace.Stream, opts Options) (*stats.Stats, error) {
	e, err := New(cfg, policy, opts)
	if err != nil {
		return nil, err
	}
	return e.RunStream(ctx, src)
}
