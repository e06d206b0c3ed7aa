package dlpsim

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/stats"
)

// Ablations quantify the design choices §4 fixes by fiat: the 200-access
// sampling period (§4.1.4), the 4-bit PD/PL field width (§4.3), and the
// VTA associativity (footnote 2: equal to the cache's). Each ablation
// sweeps one parameter and reports the swept policy's IPC speedup over
// the unmodified baseline cache on a set of applications. A sweep is a
// suite: Sweep.Schemes is the scheme list RunSuite runs, and
// Sweep.Ablation tabulates the result.

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

// Sweep is one named parameter sweep: Policy on the baseline
// configuration with Set applied for each of Values.
type Sweep struct {
	Name string
	// Paper marks the sweeps of `paperfigs -exp ablations`, the content
	// of the committed ablate_output.txt; the others are reachable by
	// name only, so that reference never drifts as policies are added.
	Paper  bool
	Policy Policy
	Values []int
	Set    func(cfg *Config, v int)
}

// Sweeps lists every ablation in the order paperfigs prints them.
func Sweeps() []Sweep {
	return []Sweep{
		// §4.1.4 sampling period; paper: 200 cache accesses.
		{"sample-period", true, DLP, []int{50, 100, 200, 400, 800}, func(c *Config, v int) { c.SampleAccesses = v }},
		// §4.3 PD field width; paper: 4 bits, a protected life of up to 15 set queries.
		{"pd-bits", true, DLP, []int{2, 3, 4, 5, 6}, func(c *Config, v int) { c.PDBits = v }},
		// Footnote 2 VTA associativity; paper: the cache's 4 ways (Nasc scales with it).
		{"vta-ways", true, DLP, []int{2, 4, 8, 16}, func(c *Config, v int) { c.VTAWays = v }},
		// A static CCWS-style warp throttle on DLP, after Chen et al. [6]; 0 is unthrottled.
		{"warp-limit", true, DLP, []int{0, 8, 16, 24, 32}, func(c *Config, v int) { c.MaxActiveWarps = v }},
		// ATA's aggregated tag ways (arXiv:2302.10638); default 16 over the 4-way cache.
		{"ata-ways", false, ATA, []int{4, 8, 16, 32}, func(c *Config, v int) { c.ATAWays = v }},
		// CCWS-lite's protection lifetime in set queries (accesses mode).
		{"ccws-lifetime", false, CCWSLite, []int{2, 4, 8, 16, 32}, func(c *Config, v int) { c.CCWSProtectAccesses = v }},
		// Reuse-free sampling periods before the reuse predictor calls an instruction dead.
		{"pred-dead-periods", false, ReusePredictor, []int{1, 2, 3, 4, 6}, func(c *Config, v int) { c.PredictorDeadPeriods = v }},
	}
}

// Schemes is the suite the sweep runs: the unmodified baseline cache
// first — the swept parameters only exist inside the policy hardware, so
// one baseline serves every point — then one "<name>=<value>" scheme per
// value.
func (s Sweep) Schemes() []Scheme {
	out := []Scheme{{"Baseline", Baseline, config.Baseline()}}
	for _, v := range s.Values {
		cfg := config.Baseline()
		s.Set(cfg, v)
		out = append(out, Scheme{fmt.Sprintf("%s=%d", s.Name, v), s.Policy, cfg})
	}
	return out
}

// Ablation tabulates res, a suite run over s.Schemes(): each point's IPC
// over the baseline's, per application. A point without Stats — its job
// failed in a KeepGoing suite — is NaN, which renders as FAILED, and the
// point's geometric mean covers the applications that did run.
func (s Sweep) Ablation(res *SuiteResult) *Ablation {
	ipc := func(app, scheme string) float64 {
		if st := res.Stats[app][scheme]; st != nil {
			return st.IPC()
		}
		return math.NaN()
	}
	ab := &Ablation{Name: s.Name}
	for _, app := range res.Apps {
		ab.Apps = append(ab.Apps, app.Abbr)
	}
	for i, v := range s.Values {
		pt := AblationPoint{Value: v, Speedups: make(map[string]float64, len(ab.Apps))}
		var ratios []float64
		for _, app := range ab.Apps {
			sp := ipc(app, res.Schemes[i+1].Name) / ipc(app, res.Schemes[0].Name) // NaN in either operand stays NaN
			pt.Speedups[app] = sp
			if !math.IsNaN(sp) {
				ratios = append(ratios, sp)
			}
		}
		pt.GeoMean = stats.GeoMean(ratios) // NaN when every app failed
		ab.Points = append(ab.Points, pt)
	}
	return ab
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
