// Package sim is the simulation engine: it wires SMs, their L1D caches,
// the interconnect, the L2 partitions and DRAM channels into one machine,
// dispatches a kernel's thread blocks, and advances everything — cycle
// for cycle in simulated time, a crossbar latency at a stride in host
// time (window.go) — until the kernel drains.
package sim

import (
	"context"
	"fmt"
	"slices"

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

// BackgroundFlitsPerKInsn models L1I/L1C/L1T traffic sharing the
// interconnect (§6.4): flits added per 1000 thread instructions.
const BackgroundFlitsPerKInsn float64 = 60

// InjectionRate is the most packets one L1D hands to the crossbar per
// cycle.
const InjectionRate = 2

// Options tune engine behavior beyond the hardware configuration.
type Options struct {
	// MaxCycles aborts runaway simulations; 0 means the default (50M).
	MaxCycles uint64
	// SelfCheck enables sampled per-cycle verification of the DLP
	// invariants the paper's correctness rests on: PL counters within
	// the PDBits field, protected lines never exceeding a set's
	// associativity, PDPT protection distances within bounds, VTA
	// geometry matching the TDA, and mid-run stats conservation.
	// Violations surface as typed *policy.InvariantError values wrapped
	// with the cycle they were caught at. The checks never mutate
	// state, so an enabled run produces byte-identical results to a
	// disabled one — which is also why SelfCheck is excluded from the
	// runner's cache key.
	SelfCheck bool
	// Deprecated: ignored. Every engine runs its windows on its own
	// goroutine; parallelism lives in the runner's worker pool.
	Cores int
	// DisableFastForward forces every component to be visited on every
	// cycle: no component skips ahead to its next event inside a window
	// and the run loop never jumps over a provably idle stretch. Skipped
	// cycles are unobservable by construction, so results are
	// bit-identical either way — which is exactly what the conformance
	// corpus and the differential fuzzer re-prove on every geometry they
	// visit by running a ff-disabled engine against the default one. Like
	// SelfCheck it is execution policy, not simulation input, and is
	// excluded from the runner's cache key.
	DisableFastForward bool
	// Metrics enables cycle-domain observability: every
	// Metrics.Interval() cycles the engine samples a registry of
	// counters and gauges registered by its components (L1D, VTA, PDPT,
	// MSHR queues, L2 partitions, crossbar, SM schedulers) into
	// Metrics.Sink. No window crosses a sampling boundary, and cycles
	// skipped by fast-forward still get their boundary rows: a skipped
	// cycle is provably a no-op, so the engine emits the row with the
	// state at the jump point, attributed to the boundary cycle. Sampled
	// series are therefore identical with fast-forward disabled.
	// Sampling reads counters the components maintain anyway, never
	// perturbs simulation state, and a nil Metrics (or nil Sink) costs
	// one nil check per boundary — so Metrics, like SelfCheck, is
	// excluded from the runner's cache key.
	Metrics *metrics.Config
}

func (o Options) withDefaults() Options {
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
	return o
}

// Canonical resolves every default to its effective value, so two
// Options that drive the engine identically compare — and hash —
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
	// partSt holds one Stats per L2 partition: the per-partition metric
	// columns (l2p<i>.*) read them, and collect folds them into the
	// totals.
	partSt []*stats.Stats

	// pool recycles mem.Request objects: the SMs allocate from it, and a
	// request goes back where its life ends — a load in its SM's
	// delivery callback, a store in the L2 partition that consumes it.
	// Its free level is the pool.free metric column.
	pool *mem.Pool

	// outMem and outCore are the window's outbound lanes, one per cycle
	// of the window: lane j holds the packets sent in the window's j-th
	// cycle, in component order, and is handed to the crossbar whole. sent
	// counts the packets in them. Every lane keeps its backing array
	// across windows, so the steady state allocates nothing.
	outMem  [][]*mem.Request
	outCore [][]*mem.Request
	sent    int

	// quantum is the longest window the run loop hands the components:
	// ICNTLatency+1 cycles (see window.go for why no longer), at most the
	// 32 between two quiescence probes, where every window ends anyway
	// (windowEnd). inbox and wake are indexed by component (partitions,
	// then SMs): the stamped arrivals of the open window, binned before
	// the component phase, and the first cycle at which the
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
}

// New builds an engine for the configuration and L1D policy.
func New(cfg *config.Config, policy config.Policy, opts Options) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg, policy, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset turns e into the machine New(cfg, policy, opts) builds, ready
// for one Run or RunStream, whatever e ran before and however that run
// ended — drained, failed, cancelled or out of cycles. Only a run that
// panicked leaves a machine that must not be reset: its components may
// be half way through an update. Every component re-initialises the
// storage it already has, and grows it where cfg asks for more; the
// L1Ds keep their scheme's state when policy is the one e last ran.
// On an error e is left as it was. A zero Engine is a valid receiver:
// New is a zero Engine plus Reset.
func (e *Engine) Reset(cfg *config.Config, policy config.Policy, opts Options) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if _, ok := policypkg.Lookup(policy); !ok {
		return fmt.Errorf("sim: %q is not a registered policy (want %s)", policy, policypkg.Usage())
	}
	e.cfg, e.policy, e.opts = cfg, policy, opts.withDefaults()
	if e.pool == nil {
		e.pool, e.netSt = mem.NewPool(), &stats.Stats{}
	}
	e.pool.Reset()
	*e.netSt = stats.Stats{}

	// A machine that shrank lets the components past its new size go.
	e.sms = shrink(e.sms, cfg.NumSMs)
	for _, s := range e.sms {
		s.Reset(cfg, policy)
	}
	for i := len(e.sms); i < cfg.NumSMs; i++ {
		e.sms = append(e.sms, sm.New(cfg, i, policy, e.pool))
	}
	if e.net == nil {
		e.net = interconnect.New(cfg.ICNTLatency, cfg.ICNTBandwidthFlits,
			cfg.ICNTFlitBytes, cfg.L1D.LineSize, e.netSt)
	} else {
		e.net.Reset(cfg.ICNTLatency, cfg.ICNTBandwidthFlits, cfg.ICNTFlitBytes, cfg.L1D.LineSize)
	}
	e.parts, e.partSt = shrink(e.parts, cfg.NumPartitions), shrink(e.partSt, cfg.NumPartitions)
	for i, p := range e.parts {
		*e.partSt[i] = stats.Stats{}
		p.Reset(cfg)
	}
	for i := len(e.parts); i < cfg.NumPartitions; i++ {
		st := &stats.Stats{}
		e.partSt = append(e.partSt, st)
		e.parts = append(e.parts, l2.New(cfg, st, e.pool))
	}

	// The component index space: partitions first, then SMs.
	total := cfg.NumSMs + cfg.NumPartitions
	e.quantum = min(uint64(cfg.ICNTLatency)+1, 32)
	e.outMem = emptyLanes(e.outMem, int(e.quantum))
	e.outCore = emptyLanes(e.outCore, int(e.quantum))
	e.inbox = emptyLanes(e.inbox, total)
	e.wake = slices.Grow(e.wake[:0], total)[:total]
	clear(e.wake)
	e.sent, e.quiet, e.parked = 0, 0, false
	e.mlast = 0
	e.windowHook = nil
	if e.opts.Metrics.Enabled() {
		e.registerMetrics(e.opts.Metrics)
	} else {
		e.mreg, e.msink, e.mevery, e.mlabel = nil, nil, 0, ""
	}
	return nil
}

// keepBound is the largest machine worth keeping between jobs: the
// largest preset. Keepable compares with it every field that sizes some
// of a machine's storage.
var keepBound = config.L1D64KB()

// Keepable reports whether e, once its run is over, is worth keeping for
// a later Reset: whether the configuration it last ran is no larger than
// the largest preset (config.L1D64KB) in any dimension that sizes a
// machine's storage. A component keeps the largest storage it was ever
// reset to, so a holder that keeps only keepable machines never holds
// more than one preset-sized machine, whatever configurations it ran.
func (e *Engine) Keepable() bool {
	c, b := e.cfg, keepBound
	if c == nil { // never Reset: nothing worth keeping
		return false
	}
	return c.NumSMs <= b.NumSMs && c.NumPartitions <= b.NumPartitions &&
		c.MaxWarpsPerSM <= b.MaxWarpsPerSM && c.SchedulersPerSM <= b.SchedulersPerSM &&
		c.L1D.Sets <= b.L1D.Sets && c.L1D.Ways <= b.L1D.Ways &&
		c.L1DMSHRs <= b.L1DMSHRs && c.L1DMSHRMerges <= b.L1DMSHRMerges &&
		c.L1DMissQueue <= b.L1DMissQueue &&
		c.VTAWays <= b.VTAWays && c.ATAWays <= b.ATAWays && c.PDPTEntries <= b.PDPTEntries &&
		c.L2.Sets <= b.L2.Sets && c.L2.Ways <= b.L2.Ways &&
		c.L2MSHRs <= b.L2MSHRs && c.L2MissQueue <= b.L2MissQueue && c.DRAMBanks <= b.DRAMBanks
}

// shrink returns s cut to at most n elements, the ones past n cleared so
// that they are not kept reachable.
func shrink[T any](s []*T, n int) []*T {
	if len(s) <= n {
		return s
	}
	clear(s[n:])
	return s[:n]
}

// emptyLanes returns n empty lanes, reusing lanes' array and each
// lane's own (cleared, so no request or arrival stays reachable).
func emptyLanes[T any](lanes [][]T, n int) [][]T {
	lanes = slices.Grow(lanes[:0], n)[:n]
	for i, l := range lanes {
		clear(l)
		lanes[i] = l[:0]
	}
	return lanes
}

// Run executes the kernel to completion and returns aggregated stats.
// The context is checked at every checkpoint of the run loop (at most
// 4096 simulated cycles apart), so a cancelled sweep stops there instead
// of running its kernels to completion.
func (e *Engine) Run(ctx context.Context, k *trace.Kernel) (*stats.Stats, error) {
	defer e.release()
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
// equivalent (see trace.Materialize): a window is the same whether the
// run's read-ahead helper filled it or an SM did when it ran dry. The
// helper is the run's one other goroutine; it only fills and packs
// windows, and it is joined before RunStream returns, however it
// returns.
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
	defer e.release()
	for bi := 0; bi < blocks; bi++ {
		e.sms[bi%len(e.sms)].AssignStream(src, bi)
	}
	ra := trace.StartReadAhead()
	defer ra.Stop()
	for _, s := range e.sms {
		s.ReadAhead(ra)
	}
	return e.runLoop(ctx, name)
}

// release drops every reference the machine holds into the trace it
// last ran, however the run ended, so a machine kept between jobs pins
// no job's kernel or stream. The next Reset re-initialises the rest.
func (e *Engine) release() {
	for _, s := range e.sms {
		s.Release()
	}
}

// frontendErr is the first frontend failure any SM's warps ran into (a
// wrapped *trace.PackError, *trace.InstrError or *trace.FormatError),
// nil when there is none.
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
// *policy.InvariantError stays reachable through errors.As. It also
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

// collect sums per-component stats into one Stats.
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
