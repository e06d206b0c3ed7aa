package dlpsim

import (
	"context"
	"strings"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rdd"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Re-exported building blocks: the names the commands, the examples and
// the figure builders use to run simulations, author workloads and read
// results.
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
	// Addr is a byte address in the simulated global memory space.
	Addr = addr.Addr

	// Runner executes batches of simulation jobs on a worker pool with
	// optional result caching and progress events.
	Runner = runner.Runner
	// RunCache is a content-addressed store of simulation results.
	RunCache = runner.Cache
	// BatchError aggregates every job failure of a KeepGoing batch.
	BatchError = runner.BatchError
)

// NewRunCache returns an empty in-memory result cache; share one across
// RunSuite / ablation calls so overlapping points simulate only once.
func NewRunCache() *RunCache { return runner.NewCache() }

// OpenRunCache returns a result cache persisted under dir, so repeated
// figure regenerations across processes never re-simulate a point.
func OpenRunCache(dir string) (*RunCache, error) { return runner.OpenDiskCache(dir) }

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

// Run executes one kernel on a machine built from cfg under the given
// policy and returns its counters.
func Run(cfg *Config, policy Policy, k *Kernel) (*Stats, error) {
	return sim.RunOnce(context.Background(), cfg, policy, k, sim.Options{})
}

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
