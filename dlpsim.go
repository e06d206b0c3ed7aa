package dlpsim

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/rdd"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Re-exported building blocks. Everything a downstream user needs to run
// simulations, author workloads, and read results is reachable from this
// package.
type (
	// Config is a full simulated-GPU hardware configuration (Table 1).
	Config = config.Config
	// Policy selects the L1D management scheme under evaluation.
	Policy = config.Policy
	// Stats holds the counters a simulation run produces.
	Stats = stats.Stats
	// Kernel is a launched grid of thread blocks with per-warp traces.
	Kernel = trace.Kernel
	// Block is one thread block.
	Block = trace.Block
	// WarpTrace is one warp's in-order instruction stream.
	WarpTrace = trace.WarpTrace
	// Instr is one warp instruction.
	Instr = trace.Instr
	// Workload describes one of the paper's benchmark applications.
	Workload = workloads.Spec
	// Overhead is the §4.3 hardware-cost breakdown.
	Overhead = core.Overhead
	// RDDProfile is a reuse-distance profile (program and per-PC).
	RDDProfile = rdd.Profile
	// Options tunes engine behavior beyond the hardware configuration.
	Options = sim.Options
	// Addr is a byte address in the simulated global memory space.
	Addr = addr.Addr

	// Job is one simulation point (config + policy + kernel + options)
	// for the parallel experiment runner.
	Job = runner.Job
	// RunResult is one Job's outcome, in submission order.
	RunResult = runner.Result
	// Runner executes batches of Jobs on a worker pool with optional
	// result caching and progress events.
	Runner = runner.Runner
	// RunCache is a content-addressed store of simulation results.
	RunCache = runner.Cache
	// RunEvent is one structured progress notification.
	RunEvent = runner.Event
	// RunEvents receives progress notifications from a Runner.
	RunEvents = runner.Events

	// BatchError aggregates every job failure of a KeepGoing batch.
	BatchError = runner.BatchError
	// JobFailure is one failed job inside a BatchError.
	JobFailure = runner.JobFailure
	// JobPanicError is a worker panic recovered into a typed error.
	JobPanicError = runner.JobPanicError
	// CancelError summarizes a batch stopped by caller cancellation.
	CancelError = runner.CancelError
	// InvariantError is a violated DLP invariant caught by a self-check
	// (Options.SelfCheck) or an explicit CheckInvariants call.
	InvariantError = core.InvariantError
	// SimFunc runs one job's simulation; Intercept wraps it.
	SimFunc = runner.SimFunc
	// Intercept wraps every simulation a Runner makes — the
	// fault-injection and instrumentation seam (internal/faultinject).
	Intercept = runner.Intercept
	// MetricsConfig enables cycle-domain sampling on a single run
	// (Options.Metrics); MetricsSink receives the sampled rows.
	MetricsConfig = metrics.Config
	// MetricsSink receives sampled metric rows (Begin once per series,
	// then Row per sampling boundary).
	MetricsSink = metrics.Sink
	// JobTracer converts runner progress events into a Chrome
	// trace_event timeline viewable in Perfetto.
	JobTracer = runner.JobTracer
)

// Progress-event kinds emitted by the Runner.
const (
	JobQueued  = runner.JobQueued
	JobStarted = runner.JobStarted
	JobDone    = runner.JobDone
)

// NewMetricsJSONL returns a sink streaming sampled rows as JSON Lines;
// NewJobTracer builds a Chrome-trace recorder over runner events (pass
// the shared RunCache, or nil, for the cache-counter track).
func NewMetricsJSONL(w io.Writer) *metrics.JSONLSink { return metrics.NewJSONLSink(w) }

// NewJobTracer builds a runner-event tracer; see JobTracer.
func NewJobTracer(cache *RunCache) *JobTracer { return runner.NewJobTracer(cache) }

// NewRunCache returns an empty in-memory result cache; share one across
// RunSuite / ablation calls so overlapping points simulate only once.
func NewRunCache() *RunCache { return runner.NewCache() }

// OpenRunCache returns a result cache persisted under dir, so repeated
// figure regenerations across processes never re-simulate a point.
func OpenRunCache(dir string) (*RunCache, error) { return runner.OpenDiskCache(dir) }

// RunJobs executes jobs on r's worker pool (a nil Runner gets defaults:
// GOMAXPROCS workers, no cache) and returns results in submission order.
func RunJobs(ctx context.Context, jobs []Job, r *Runner) ([]RunResult, error) {
	if r == nil {
		r = &Runner{}
	}
	return r.Run(ctx, jobs)
}

// Instruction constructors for authoring custom workloads.
var (
	// NewLoad builds a global load touching the given per-lane addresses.
	NewLoad = trace.NewLoad
	// NewStore builds a global store touching the given per-lane addresses.
	NewStore = trace.NewStore
	// NewCompute builds an ALU instruction with the given latency and
	// active lane count.
	NewCompute = trace.NewCompute
)

// The registered L1D policies: the paper's four evaluated schemes
// (§5.3) plus the drop-in additions from the wider literature.
const (
	Baseline         = config.PolicyBaseline
	StallBypass      = config.PolicyStallBypass
	GlobalProtection = config.PolicyGlobalProtection
	DLP              = config.PolicyDLP
	ATA              = config.PolicyATA
	CCWSLite         = config.PolicyCCWS
	ReusePredictor   = config.PolicyReusePredictor
)

// BaselineConfig returns the paper's Table 1 configuration (16KB 4-way
// L1D).
func BaselineConfig() *Config { return config.Baseline() }

// ConfigForL1D returns the preset for a 16, 32 or 64 KB L1D.
func ConfigForL1D(kb int) (*Config, error) { return config.ByL1DSize(kb) }

// Policies lists every registered scheme, the paper's four first (in
// plotting order) followed by the literature additions.
func Policies() []Policy { return policy.All() }

// PaperPolicies lists only the paper's four evaluated schemes (§5.3).
func PaperPolicies() []Policy { return policy.Paper() }

// PolicyUsage describes the accepted -policy spellings for CLI help.
func PolicyUsage() string { return policy.Usage() }

// PolicyCitation returns the one-line provenance of a registered scheme.
func PolicyCitation(p Policy) string {
	if s, ok := policy.Lookup(p); ok {
		return s.Cite
	}
	return ""
}

// Run executes one kernel on a machine built from cfg under the given
// policy and returns its counters.
func Run(cfg *Config, policy Policy, k *Kernel) (*Stats, error) {
	return sim.RunOnce(context.Background(), cfg, policy, k, sim.Options{})
}

// RunWithOptions is Run with explicit engine options.
func RunWithOptions(cfg *Config, policy Policy, k *Kernel, opts Options) (*Stats, error) {
	return sim.RunOnce(context.Background(), cfg, policy, k, opts)
}

// RunContext is Run with explicit engine options and a context: a
// cancelled context aborts the simulation within a few thousand cycles.
func RunContext(ctx context.Context, cfg *Config, policy Policy, k *Kernel, opts Options) (*Stats, error) {
	return sim.RunOnce(ctx, cfg, policy, k, opts)
}

// Workloads returns the 18 benchmark applications in Table 2 order.
func Workloads() []Workload { return workloads.All() }

// WorkloadByAbbr finds an application by its figure label (e.g. "BFS").
func WorkloadByAbbr(abbr string) (Workload, error) {
	return workloads.ByAbbr(strings.ToUpper(abbr))
}

// RunApp generates the named application and runs it under policy with
// an l1dKB-sized L1D (16, 32 or 64).
func RunApp(abbr string, policy Policy, l1dKB int) (*Stats, error) {
	spec, err := WorkloadByAbbr(abbr)
	if err != nil {
		return nil, err
	}
	cfg, err := config.ByL1DSize(l1dKB)
	if err != nil {
		return nil, err
	}
	return Run(cfg, policy, spec.SharedKernel(cfg.L1D.LineSize))
}

// HardwareOverhead evaluates the paper's §4.3 cost model for cfg. With
// the baseline configuration it reproduces the published numbers: 1264
// extra bytes, 7.48% of the baseline cache.
func HardwareOverhead(cfg *Config) Overhead { return core.ComputeOverhead(cfg) }

// ProfileRDD replays a kernel's memory stream and returns its
// reuse-distance profile under cfg's L1D geometry (§3.1).
func ProfileRDD(cfg *Config, k *Kernel) *RDDProfile {
	return rdd.ProfileKernel(k, cfg.NumSMs, cfg.L1D)
}

// ReuseMissRate replays the stream through LRU caches of cfg's L1D
// geometry and returns the non-compulsory miss rate (Fig. 4).
func ReuseMissRate(cfg *Config, k *Kernel) float64 {
	return rdd.ReuseMissRate(k, cfg.NumSMs, cfg.L1D)
}

// WriteKernel saves a kernel to path in the library's one trace file
// format, DLPSTRM1 (documented in internal/trace/file.go; the file
// `dlptrace record` writes and `dlpsim -stream-file` replays); ReadKernel
// loads one back. The format is checksummed and stable across runs, so
// kernels — including ones converted from external simulators — can be
// stored and replayed byte-identically.
func WriteKernel(path string, k *Kernel) error {
	return trace.WriteFile(path, trace.NewKernelStream(k), 0)
}

// ReadKernel loads a kernel saved by WriteKernel or recorded by dlptrace.
func ReadKernel(path string) (*Kernel, error) { return trace.ReadKernel(path) }

// ParsePolicy converts a CLI-style name into a Policy. It accepts every
// registered scheme's name and aliases, case-insensitively.
func ParsePolicy(s string) (Policy, error) {
	p, err := policy.Parse(s)
	if err != nil {
		return "", fmt.Errorf("dlpsim: %w", err)
	}
	return p, nil
}
