package dlpsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Ablations quantify the design choices §4 fixes by fiat: the 200-access
// sampling period (§4.1.4), the 4-bit PD/PL field width (§4.3), and the
// VTA associativity (footnote 2: equal to the cache's). Each ablation
// sweeps one parameter and reports DLP's IPC speedup over the unmodified
// baseline cache on a set of cache-insufficient applications.

// AblationPoint is one parameter setting's outcome.
type AblationPoint struct {
	Value    int                // the swept parameter's value
	Speedups map[string]float64 // app -> swept-policy IPC / baseline IPC
	GeoMean  float64
}

// Ablation is one parameter sweep.
type Ablation struct {
	Name   string
	Apps   []string
	Points []AblationPoint
}

// DefaultAblationApps are the CI applications used for sweeps: the two
// protection showcases, one 32KB-favoring app, and one long-RD app.
func DefaultAblationApps() []string { return []string{"CFD", "PVR", "SRK", "KM"} }

// runAblation sweeps mutate over values for the given apps under pol.
// All points — the per-app baselines plus every (value, app) run — are
// submitted to r as one batch, so the pool overlaps them freely and a
// shared result cache deduplicates the baselines across sweeps. A nil
// runner gets the defaults (GOMAXPROCS workers, no cache).
func runAblation(ctx context.Context, name string, pol Policy, apps []string, values []int,
	mutate func(cfg *config.Config, v int), r *runner.Runner) (*Ablation, error) {
	if r == nil {
		r = &runner.Runner{}
	}
	ab := &Ablation{Name: name, Apps: apps}

	// Kernels are generated once per app and shared by every point
	// (they are read-only during simulation).
	kernels := make([]*trace.Kernel, len(apps))
	for i, app := range apps {
		spec, err := workloads.ByAbbr(app)
		if err != nil {
			return nil, err
		}
		kernels[i] = spec.SharedKernel(config.Baseline().L1D.LineSize)
	}

	// Baselines are measured once with the untouched configuration: the
	// swept parameters only exist inside the policy hardware, so the
	// baseline cache is unaffected by them.
	var jobs []runner.Job
	for i, app := range apps {
		jobs = append(jobs, runner.Job{
			Label:  fmt.Sprintf("%s: baseline %s", name, app),
			Config: config.Baseline(),
			Policy: config.PolicyBaseline,
			Kernel: kernels[i],
		})
	}
	for _, v := range values {
		cfg := config.Baseline()
		mutate(cfg, v)
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		for i, app := range apps {
			jobs = append(jobs, runner.Job{
				Label:  fmt.Sprintf("%s=%d: %s", name, v, app),
				Config: cfg,
				Policy: pol,
				Kernel: kernels[i],
			})
		}
	}

	results, err := r.Run(ctx, jobs)
	// With a KeepGoing runner a *runner.BatchError carries a complete
	// results slice whose failed points hold nil Stats; tabulate the
	// partial sweep (failed cells become NaN → rendered FAILED) and
	// return it alongside the error. Any other error has no results.
	if err != nil && !(r.KeepGoing && errors.As(err, new(*runner.BatchError))) {
		return nil, err
	}

	ipc := func(res runner.Result) float64 {
		if res.Stats == nil {
			return math.NaN()
		}
		return res.Stats.IPC()
	}
	base := make(map[string]float64, len(apps))
	for i, app := range apps {
		base[app] = ipc(results[i])
	}
	idx := len(apps)
	for _, v := range values {
		pt := AblationPoint{Value: v, Speedups: make(map[string]float64, len(apps))}
		var ratios []float64
		for _, app := range apps {
			sp := ipc(results[idx]) / base[app] // NaN in either operand stays NaN
			pt.Speedups[app] = sp
			if !math.IsNaN(sp) {
				ratios = append(ratios, sp)
			}
			idx++
		}
		pt.GeoMean = stats.GeoMean(ratios) // NaN when every app failed
		ab.Points = append(ab.Points, pt)
	}
	return ab, err
}

// Sweep is one named parameter sweep of the `ablate` command.
type Sweep struct {
	Name string
	// Paper marks the sweeps of `ablate -sweep all`, the content of the
	// committed ablate_output.txt; the others are reachable by name only,
	// so that reference never drifts as policies are added.
	Paper bool
	Run   func(ctx context.Context, apps []string, r *Runner) (*Ablation, error)
}

// Sweeps lists every ablation in the order `ablate` prints them.
func Sweeps() []Sweep {
	return []Sweep{
		{"sample-period", true, AblateSamplePeriod},
		{"pd-bits", true, AblatePDBits},
		{"vta-ways", true, AblateVTAWays},
		{"warp-limit", true, AblateWarpLimit},
		{"ata-ways", false, AblateATAWays},
		{"ccws-lifetime", false, AblateCCWSLifetime},
		{"pred-dead-periods", false, AblatePredictorDeadPeriods},
	}
}

// AblateSamplePeriod sweeps the sampling period (§4.1.4; paper: 200
// cache accesses).
func AblateSamplePeriod(ctx context.Context, apps []string, r *Runner) (*Ablation, error) {
	return runAblation(ctx, "sample-period", DLP, apps, []int{50, 100, 200, 400, 800},
		func(cfg *config.Config, v int) { cfg.SampleAccesses = v }, r)
}

// AblatePDBits sweeps the protection-distance field width (§4.3; paper:
// 4 bits, i.e. a maximum protected life of 15 set queries).
func AblatePDBits(ctx context.Context, apps []string, r *Runner) (*Ablation, error) {
	return runAblation(ctx, "pd-bits", DLP, apps, []int{2, 3, 4, 5, 6},
		func(cfg *config.Config, v int) { cfg.PDBits = v }, r)
}

// AblateVTAWays sweeps the victim-tag-array associativity (footnote 2;
// paper: equal to the cache's 4 ways). Nasc scales with it, so this
// changes both the observation window and the PD increments.
func AblateVTAWays(ctx context.Context, apps []string, r *Runner) (*Ablation, error) {
	return runAblation(ctx, "vta-ways", DLP, apps, []int{2, 4, 8, 16},
		func(cfg *config.Config, v int) { cfg.VTAWays = v }, r)
}

// AblateWarpLimit sweeps a static CCWS-style active-warp throttle on top
// of DLP — the combination the paper's related work points at (Chen et
// al. [6] integrate PDP with CCWS). Zero means unthrottled.
func AblateWarpLimit(ctx context.Context, apps []string, r *Runner) (*Ablation, error) {
	return runAblation(ctx, "warp-limit", DLP, apps, []int{0, 8, 16, 24, 32},
		func(cfg *config.Config, v int) { cfg.MaxActiveWarps = v }, r)
}

// AblateATAWays sweeps the aggregated tag array's associativity under
// the ATA policy (arXiv:2302.10638 sizes the tag store several times
// the data store; the paper's default here is 16 ways over a 4-way
// cache).
func AblateATAWays(ctx context.Context, apps []string, r *Runner) (*Ablation, error) {
	return runAblation(ctx, "ata-ways", ATA, apps, []int{4, 8, 16, 32},
		func(cfg *config.Config, v int) { cfg.ATAWays = v }, r)
}

// AblateCCWSLifetime sweeps CCWS-lite's protection lifetime in the
// accesses encoding (set queries a re-fetched line stays protected).
func AblateCCWSLifetime(ctx context.Context, apps []string, r *Runner) (*Ablation, error) {
	return runAblation(ctx, "ccws-lifetime", CCWSLite, apps, []int{2, 4, 8, 16, 32},
		func(cfg *config.Config, v int) { cfg.CCWSProtectAccesses = v }, r)
}

// AblatePredictorDeadPeriods sweeps how many reuse-free sampling periods
// the reuse predictor tolerates before declaring an instruction dead.
func AblatePredictorDeadPeriods(ctx context.Context, apps []string, r *Runner) (*Ablation, error) {
	return runAblation(ctx, "pred-dead-periods", ReusePredictor, apps, []int{1, 2, 3, 4, 6},
		func(cfg *config.Config, v int) { cfg.PredictorDeadPeriods = v }, r)
}

// Render formats the ablation as an aligned table. NaN cells — points
// whose job failed in a keep-going sweep — render as FAILED rather than
// a number, so a partial table can never be mistaken for a complete one.
func (a *Ablation) Render() string {
	cell := func(width int, v float64) string {
		if math.IsNaN(v) {
			return fmt.Sprintf("%*s", width, "FAILED")
		}
		return fmt.Sprintf("%*.3f", width, v)
	}
	out := fmt.Sprintf("== ablation: %s ==\n%-8s", a.Name, "value")
	for _, app := range a.Apps {
		out += fmt.Sprintf("%8s", app)
	}
	out += fmt.Sprintf("%10s\n", "geomean")
	for _, pt := range a.Points {
		out += fmt.Sprintf("%-8d", pt.Value)
		for _, app := range a.Apps {
			out += cell(8, pt.Speedups[app])
		}
		out += cell(10, pt.GeoMean) + "\n"
	}
	return out
}
