// Package sim is the simulation engine: it wires SMs, their L1D caches,
// the interconnect, the L2 partitions and DRAM channels into one machine,
// dispatches a kernel's thread blocks, and advances everything — cycle
// for cycle in simulated time, a crossbar latency at a stride in host
// time (window.go) — until the kernel drains.
package sim

import (
	"context"
	"fmt"

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
	// shards run the SMs and L2 partitions concurrently through each
	// window of cycles.
	// 0 or 1 means fully serial (no extra goroutines). Results are
	// bit-identical at every value — the parallel phase only touches
	// component-local state, and all cross-component interaction runs
	// serially in fixed SM/partition order (see DESIGN.md §10) — so
	// Cores, like SelfCheck, is excluded from the runner's cache key.
	// Values beyond the component count are clamped.
	Cores int
	// DisableFastForward forces every component to be visited on every
	// cycle: no component skips ahead to its next event inside a window
	// and the run loop never jumps over a provably idle stretch. Skipped
	// cycles are unobservable by construction, so results are
	// bit-identical either way — which is exactly what the conformance
	// corpus and the
	// differential fuzzer re-prove on every geometry they visit by
	// running a ff-disabled engine against the default one. Like
	// SelfCheck and Cores it is execution policy, not simulation input,
	// and is excluded from the runner's cache key.
	DisableFastForward bool
	// PhaseHook, when non-nil, is called by every shard (the
	// coordinator is shard 0) at the top of each component phase with
	// the shard's worker index and the first cycle of the window the
	// phase runs. It is a test and
	// fault-injection seam — e.g. proving a panic on a phase worker
	// surfaces as a typed error — and must not mutate engine state. It
	// never affects results and is excluded from cache keys.
	PhaseHook func(worker int, cycle uint64)
	// Metrics enables cycle-domain observability: every
	// Metrics.Interval() cycles the engine samples a registry of
	// counters and gauges registered by its components (L1D, VTA, PDPT,
	// MSHR queues, L2 partitions, crossbar, SM schedulers) into
	// Metrics.Sink. No window crosses a sampling boundary, and cycles
	// skipped by fast-forward still get their boundary rows: a skipped
	// cycle is provably a no-op, so the engine emits the row with the
	// state at the jump point, attributed to the boundary cycle. Sampled
	// series are therefore
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
	// SM allocates from and returns loads to its own pool while it runs
	// a window. Store requests consumed by L2 partitions are deferred
	// into per-partition recyclers; the partition's span drains them
	// into its put list and the serial end of the window returns them
	// to the issuing SM's pool (Request.SM) — so pools stay unlocked and
	// the steady state allocation-free at any core count.
	pools     []*mem.Pool
	recyclers []*mem.Recycler

	// workers is the effective phase parallelism (Options.Cores clamped
	// to the component count); spans is the contiguous partition of the
	// unified component index space the workers steal from, and spanSt
	// holds each span's outbound lanes, activity bits and wake bound.
	workers int
	spans   []span
	spanSt  []spanState

	// quantum is the longest window the run loop hands the components:
	// ICNTLatency+1 cycles (see window.go for why no longer), at most the
	// 32 between two quiescence probes, where every window ends anyway
	// (windowEnd). inbox and wake are indexed by component (partitions,
	// then SMs): the stamped arrivals of the open window, binned serially
	// before the component phase, and the first cycle at which the
	// component needs running again if nothing arrives for it.
	quantum uint64
	inbox   [][]arrival
	wake    []uint64
	// quiet and parked summarize the machine after a window, for the
	// fast-forward decisions: the first cycle at which anything at all
	// can happen, and whether some SM's LD/ST head is parked on a stall
	// (which forbids jumping, though not skipping — see nextStart).
	quiet  uint64
	parked bool
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

	// windowHook, when set by a test in this package, observes every
	// window the run loop simulates, after its self-check: first and last
	// cycle, and one activity bit per cycle (bit 0 is t0). Cycles jumped
	// over are not observed — that they carry no observable work is
	// exactly what the activity property tests verify.
	windowHook func(t0, t1, active uint64)
	// spanHook, when set by a test in this package, observes every span
	// claim of every component phase (it may run concurrently on
	// several workers). The steal-schedule tests use it to prove each
	// span is claimed exactly once per phase.
	spanHook func(span int, t0 uint64)
	// disableFastForward is Options.DisableFastForward, settable by the
	// differential property tests of this package after New.
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
	e.quantum = min(uint64(cfg.ICNTLatency)+1, 32)
	for i := range e.spanSt {
		e.spanSt[i].outMem = make([][]*mem.Request, e.quantum)
		e.spanSt[i].outCore = make([][]*mem.Request, e.quantum)
	}
	e.inbox = make([][]arrival, total)
	e.wake = make([]uint64, total)
	if opts.Metrics.Enabled() {
		e.registerMetrics(opts.Metrics)
	}
	return e, nil
}

// Run executes the kernel to completion and returns aggregated stats.
// The context is checked at every checkpoint of the run loop (at most
// 4096 simulated cycles apart), so a cancelled sweep stops there instead
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
	for i, p := range e.parts {
		if err := p.CheckPark(); err != nil {
			return fmt.Errorf("sim: kernel %q self-check failed at cycle %d (partition %d): %w",
				name, cycle, i, err)
		}
	}
	if err := e.checkActivity(); err != nil {
		return fmt.Errorf("sim: kernel %q self-check failed at cycle %d: %w", name, cycle, err)
	}
	return nil
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
