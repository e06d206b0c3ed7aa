package dlpsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/rdd"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Table and Distribution are the renderable result shapes the figure
// builders produce.
type (
	Table        = report.Table
	Distribution = report.Distribution
	Series       = report.Series
)

// Scheme is one (policy, L1D size) combination plotted in the paper's
// evaluation figures.
type Scheme struct {
	Name   string
	Policy Policy
	L1DKB  int
}

// PaperSchemes are the five configurations of Figure 10, in plotting
// order: the registry's paper subset at 16KB plus the doubled-capacity
// baseline.
func PaperSchemes() []Scheme {
	out := make([]Scheme, 0, 5)
	for _, p := range policy.Paper() {
		name := p.String()
		if p == Baseline {
			name = "16KB(Baseline)"
		}
		out = append(out, Scheme{name, p, 16})
	}
	return append(out, Scheme{"32KB", Baseline, 32})
}

// PolicySchemes are every registered policy at the paper's 16KB L1D —
// the paper's four schemes followed by the literature additions — for
// cross-policy comparison tables (paperfigs -exp policies).
func PolicySchemes() []Scheme {
	all := policy.All()
	out := make([]Scheme, len(all))
	for i, p := range all {
		out[i] = Scheme{p.String(), p, 16}
	}
	return out
}

// AssocSchemes are the three cache sizes of Figures 4 and 5.
func AssocSchemes() []Scheme {
	return []Scheme{
		{"16KB", Baseline, 16},
		{"32KB", Baseline, 32},
		{"64KB", Baseline, 64},
	}
}

// SuiteResult holds one simulation per (application, scheme).
type SuiteResult struct {
	Apps    []Workload
	Schemes []Scheme
	// Stats[appAbbr][schemeName]
	Stats map[string]map[string]*Stats
}

// SuiteOptions is what RunSuite needs beyond its scheme list. The zero
// value (and a nil *SuiteOptions) runs the full Table 2 registry on
// GOMAXPROCS workers with no result cache.
type SuiteOptions struct {
	// Runner executes the suite's jobs: pool size, result cache,
	// progress events, failure policy, phase parallelism and metrics
	// sampling are all its fields. Share one — and
	// with it one cache — across RunSuite calls and ablation sweeps so
	// overlapping points are never re-simulated. Nil means the defaults.
	// With Runner.KeepGoing set, RunSuite returns the partial
	// SuiteResult (failed points hold nil Stats and render as FAILED
	// cells) together with a *BatchError describing every failure.
	Runner *Runner
	// Apps restricts the suite to the given applications; nil means the
	// full Table 2 registry. Used by tests and partial regenerations.
	Apps []Workload
	// Stream feeds every application through the lazy chunked stream
	// frontend (workloads.Spec.Stream) instead of the process-shared
	// precomputed kernel. Counters are bit-identical either way; what
	// changes is startup cost — no kernel is materialized, so suite
	// setup allocations and peak memory drop.
	Stream bool
	// Scale multiplies each application's grid and shared footprint
	// (workloads.Spec.Stream / ScaledKernel); <= 1 is the paper's
	// Table 2 size. Large scales pair naturally with Stream, which
	// keeps memory bounded by the chunk pool regardless of Scale.
	Scale int
}

// RunSuite simulates every application under every scheme on a parallel
// worker pool. The result tables are deterministic regardless of worker
// count or completion order: jobs are scattered back into the
// (app, scheme) grid by submission index, and the engine itself is
// deterministic, so same jobs + any schedule = same tables.
func RunSuite(ctx context.Context, schemes []Scheme, opts *SuiteOptions) (*SuiteResult, error) {
	if opts == nil {
		opts = &SuiteOptions{}
	}
	apps := opts.Apps
	if apps == nil {
		apps = workloads.All()
	}
	r := opts.Runner
	if r == nil {
		r = &runner.Runner{}
	}

	// One config per scheme, built and validated once — not once per
	// (app, scheme) pair as the old serial loop did.
	cfgs := make([]*config.Config, len(schemes))
	for i, sc := range schemes {
		cfg, err := config.ByL1DSize(sc.L1DKB)
		if err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}

	jobs := make([]runner.Job, 0, len(apps)*len(schemes))
	for _, spec := range apps {
		var (
			k   *trace.Kernel
			src trace.Stream
		)
		switch {
		case opts.Stream:
			// One stream shared by every scheme's job: Fill is
			// per-(block, warp) and SMs hold their own cursors, so
			// concurrent jobs can draw from the same source.
			src = spec.Stream(opts.Scale)
		case opts.Scale > 1:
			k = spec.ScaledKernel(opts.Scale)
			k.PrecomputeCoalesced(cfgs[0].L1D.LineSize)
		default:
			// One kernel shared by every scheme's job — and, via the
			// process-wide cache, by every other suite in the process.
			k = spec.SharedKernel(cfgs[0].L1D.LineSize)
		}
		for si, sc := range schemes {
			jobs = append(jobs, runner.Job{
				Label:  spec.Abbr + " under " + sc.Name,
				Config: cfgs[si],
				Policy: sc.Policy,
				Kernel: k,
				Stream: src,
			})
		}
	}

	results, err := r.Run(ctx, jobs)
	// In KeepGoing mode a *runner.BatchError still comes with a full
	// results slice (failed points carry nil Stats); build the partial
	// result and hand both back so callers can render FAILED cells and
	// report the failures. Every other error means there is nothing to
	// tabulate.
	if err != nil && !(r.KeepGoing && errors.As(err, new(*runner.BatchError))) {
		return nil, err
	}

	res := &SuiteResult{
		Apps:    apps,
		Schemes: schemes,
		Stats:   make(map[string]map[string]*stats.Stats, len(apps)),
	}
	i := 0
	for _, spec := range apps {
		res.Stats[spec.Abbr] = make(map[string]*stats.Stats, len(schemes))
		for _, sc := range schemes {
			res.Stats[spec.Abbr][sc.Name] = results[i].Stats
			i++
		}
	}
	return res, err
}

// apps/classes return the column labels shared by every series table.
func (r *SuiteResult) appLabels() ([]string, []string) {
	apps := make([]string, len(r.Apps))
	classes := make([]string, len(r.Apps))
	for i, s := range r.Apps {
		apps[i] = s.Abbr
		classes[i] = s.Class.String()
	}
	return apps, classes
}

// seriesTable builds a table with one row per scheme where each value is
// extract(stats) normalized by the first scheme's value when normalize
// is set. Points with no result — jobs that failed in a KeepGoing run —
// become NaN, which report.Table renders as FAILED and excludes from
// the geometric means; a failed baseline point poisons (NaNs) the whole
// column, which is correct because nothing can be normalized against it.
func (r *SuiteResult) seriesTable(title string, normalize bool, extract func(*Stats) float64) (*Table, error) {
	val := func(st *Stats) float64 {
		if st == nil {
			return math.NaN()
		}
		return extract(st)
	}
	apps, classes := r.appLabels()
	t := &Table{Title: title, Apps: apps, Classes: classes}
	base := make([]float64, len(r.Apps))
	for i, spec := range r.Apps {
		base[i] = val(r.Stats[spec.Abbr][r.Schemes[0].Name])
	}
	for _, sc := range r.Schemes {
		vals := make([]float64, len(r.Apps))
		for i, spec := range r.Apps {
			v := val(r.Stats[spec.Abbr][sc.Name])
			if normalize {
				if base[i] != 0 { // NaN base falls through: v / NaN = NaN
					v /= base[i]
				} else {
					v = 0
				}
			}
			vals[i] = v
		}
		if err := t.AddSeries(sc.Name, vals); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig10IPC builds the paper's headline figure: IPC under each scheme,
// normalized to the 16KB baseline, with CS/CI geometric means.
func (r *SuiteResult) Fig10IPC() (*Table, error) {
	return r.seriesTable("Fig. 10: normalized IPC", true, func(s *Stats) float64 { return s.IPC() })
}

// Fig11aTraffic builds normalized L1D traffic (accesses serviced
// in-cache; bypassed requests don't count).
func (r *SuiteResult) Fig11aTraffic() (*Table, error) {
	return r.seriesTable("Fig. 11a: normalized L1D traffic", true,
		func(s *Stats) float64 { return float64(s.L1DTraffic) })
}

// Fig11bEvictions builds normalized L1D evictions.
func (r *SuiteResult) Fig11bEvictions() (*Table, error) {
	return r.seriesTable("Fig. 11b: normalized L1D evictions", true,
		func(s *Stats) float64 { return float64(s.L1DEvictions) })
}

// Fig12aHitRate builds absolute L1D hit rates (bypasses excluded from
// the denominator, §6.3).
func (r *SuiteResult) Fig12aHitRate() (*Table, error) {
	return r.seriesTable("Fig. 12a: L1D hit rate", false,
		func(s *Stats) float64 { return s.L1DHitRate() })
}

// Fig12bHits builds the normalized number of L1D hits.
func (r *SuiteResult) Fig12bHits() (*Table, error) {
	return r.seriesTable("Fig. 12b: normalized L1D hits", true,
		func(s *Stats) float64 { return float64(s.L1DHits) })
}

// Fig13ICNT builds normalized interconnect traffic (flits, including the
// background L1I/L1C/L1T share).
func (r *SuiteResult) Fig13ICNT() (*Table, error) {
	return r.seriesTable("Fig. 13: normalized interconnect traffic", true,
		func(s *Stats) float64 { return float64(s.ICNTFlits) })
}

// Fig5IPC builds the associativity study: IPC at 16/32/64KB normalized
// to 16KB. Use with a suite run over AssocSchemes.
func (r *SuiteResult) Fig5IPC() (*Table, error) {
	return r.seriesTable("Fig. 5: IPC vs L1D size (normalized to 16KB)", true,
		func(s *Stats) float64 { return s.IPC() })
}

// Fig3RDD profiles every application and returns the program-level
// reuse-distance distribution table.
func Fig3RDD() *Distribution {
	cfg := config.Baseline()
	d := &Distribution{
		Title:   "Fig. 3: reuse distance distribution per application",
		Buckets: rdd.BucketLabels,
	}
	for _, spec := range workloads.All() {
		prof := rdd.ProfileKernel(spec.SharedKernel(cfg.L1D.LineSize), cfg.NumSMs, cfg.L1D)
		d.Rows = append(d.Rows, report.DistRow{
			Label:     spec.Abbr,
			Fractions: prof.GlobalFractions(),
		})
	}
	return d
}

// Fig4MissRates replays every application through 16/32/64KB LRU caches
// and tabulates the reuse-data miss rate (compulsory misses excluded).
func Fig4MissRates() (*Table, error) {
	apps := make([]string, 0, 18)
	classes := make([]string, 0, 18)
	for _, s := range workloads.All() {
		apps = append(apps, s.Abbr)
		classes = append(classes, s.Class.String())
	}
	t := &Table{Title: "Fig. 4: reuse-data miss rate vs L1D size", Apps: apps, Classes: nil}
	n := config.Baseline().NumSMs
	for _, sc := range AssocSchemes() {
		cfg, err := config.ByL1DSize(sc.L1DKB)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, 0, len(apps))
		for _, s := range workloads.All() {
			vals = append(vals, rdd.ReuseMissRate(s.SharedKernel(cfg.L1D.LineSize), n, cfg.L1D))
		}
		if err := t.AddSeries(sc.Name, vals); err != nil {
			return nil, err
		}
	}
	_ = classes
	return t, nil
}

// Fig6Ratios tabulates the memory-access ratio of every application in
// ascending order with its CS/CI classification (1% threshold).
func Fig6Ratios() (*Table, error) {
	lineSize := config.Baseline().L1D.LineSize
	sorted := workloads.SortedByRatio(lineSize)
	apps := make([]string, len(sorted))
	classes := make([]string, len(sorted))
	vals := make([]float64, len(sorted))
	for i, s := range sorted {
		apps[i] = s.Abbr
		classes[i] = s.Class.String()
		vals[i] = s.SharedKernel(lineSize).Summarize(lineSize).MemoryAccessRatio() * 100
	}
	t := &Table{Title: "Fig. 6: memory access ratio (%, sorted)", Apps: apps, Format: "%.3f"}
	if err := t.AddSeries("ratio%", vals); err != nil {
		return nil, err
	}
	if err := t.AddSeries("CI?(>1%)", boolSeries(classes)); err != nil {
		return nil, err
	}
	return t, nil
}

func boolSeries(classes []string) []float64 {
	out := make([]float64, len(classes))
	for i, c := range classes {
		if c == "CI" {
			out[i] = 1
		}
	}
	return out
}

// Fig7BFS returns the per-instruction RDD of the BFS application.
func Fig7BFS() *Distribution {
	cfg := config.Baseline()
	spec, _ := workloads.ByAbbr("BFS")
	prof := rdd.ProfileKernel(spec.SharedKernel(cfg.L1D.LineSize), cfg.NumSMs, cfg.L1D)
	d := &Distribution{
		Title:   "Fig. 7: per-instruction RDD of BFS",
		Buckets: rdd.BucketLabels,
	}
	for _, pc := range prof.PCs() {
		d.Rows = append(d.Rows, report.DistRow{
			Label:     fmt.Sprintf("insn%d", pc),
			Fractions: prof.PCFractions(pc),
		})
	}
	return d
}

// Table2 tabulates the benchmark applications (name, suite, class,
// input) as in the paper.
func Table2() string {
	out := "== Table 2: benchmark applications ==\n"
	for _, s := range workloads.All() {
		out += fmt.Sprintf("%-5s %-2s %-13s %-40s input=%s\n",
			s.Abbr, s.Class, s.Suite, s.Name, s.Input)
	}
	return out
}

// OverheadReport formats the §4.3 hardware-cost model for cfg.
func OverheadReport(cfg *Config) string {
	o := HardwareOverhead(cfg)
	return fmt.Sprintf(`== §4.3 hardware overhead (%s) ==
TDA extra (insn ID + PL):  %5d B
Victim tag array:          %5d B
PD prediction table:       %5d B
total extra:               %5d B
baseline TDA:              %5d B
overhead:                  %.2f%%
`, cfg.Name, o.TDAExtraBytes, o.VTABytes, o.PDPTBytes, o.TotalBytes, o.BaselineBytes, o.Percent)
}

// Speedups summarizes a suite's headline numbers: the CS and CI
// geometric-mean IPC of every scheme relative to the first. NaN cells
// (failed points in a partial, KeepGoing suite) are excluded from the
// means; if every point of a class failed, the resulting NaN geomean is
// reported as an error rather than a fabricated number.
func (r *SuiteResult) Speedups() (map[string]map[string]float64, error) {
	t, err := r.Fig10IPC()
	if err != nil {
		return nil, err
	}
	_, classes := r.appLabels()
	out := make(map[string]map[string]float64)
	for _, s := range t.Series {
		var cs, ci []float64
		for i, v := range s.Values {
			if math.IsNaN(v) {
				continue
			}
			if classes[i] == "CS" {
				cs = append(cs, v)
			} else {
				ci = append(ci, v)
			}
		}
		m := map[string]float64{"CS": stats.GeoMean(cs), "CI": stats.GeoMean(ci)}
		for k, v := range m {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("dlpsim: NaN %s geomean for scheme %s", k, s.Name)
			}
		}
		out[s.Name] = m
	}
	return out, nil
}

// WritePaperFigs writes what `paperfigs -exp exps` prints to stdout:
// the experiments named in the comma-separated exps ("all" = every id
// but the opt-in "policies"), in the command's fixed order, as text
// tables or CSV. run executes one scheme set (RunSuite in the command,
// cached suites in the drift test). A suite that comes back together
// with an error is partial (KeepGoing): its tables render with FAILED
// cells, the speedup summaries — means over an incomplete suite would
// compare schemes on different application subsets — are left out, and
// the error is returned once everything else has been written.
func WritePaperFigs(w io.Writer, exps string, csv bool, run func([]Scheme) (*SuiteResult, error)) error {
	want := map[string]bool{}
	for _, id := range strings.Split(exps, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	has := func(id string) bool { return want["all"] || want[id] }

	var partial error
	suite := func(schemes []Scheme) (*SuiteResult, error) {
		res, err := run(schemes)
		if res == nil {
			return nil, err
		}
		partial = errors.Join(partial, err)
		return res, nil
	}
	type figure interface {
		Render(io.Writer) error
		RenderCSV(io.Writer) error
	}
	emit := func(f figure, err error) error {
		if err != nil {
			return err
		}
		render := f.Render
		if csv {
			render = f.RenderCSV
		}
		if err := render(w); err != nil {
			return err
		}
		_, err = fmt.Fprintln(w)
		return err
	}
	speedups := func(res *SuiteResult, title string) error {
		if partial != nil {
			return nil
		}
		sp, err := res.Speedups()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, title)
		for _, sc := range res.Schemes {
			fmt.Fprintf(w, "%-18s CI x%.3f   CS x%.3f\n", sc.Name, sp[sc.Name]["CI"], sp[sc.Name]["CS"])
		}
		return nil
	}

	if has("table2") {
		fmt.Fprintln(w, Table2())
	}
	if has("overhead") {
		fmt.Fprintln(w, OverheadReport(BaselineConfig()))
	}
	analysis := []struct {
		id    string
		build func() (figure, error)
	}{
		{"fig3", func() (figure, error) { return Fig3RDD(), nil }},
		{"fig4", func() (figure, error) { return Fig4MissRates() }},
		{"fig6", func() (figure, error) { return Fig6Ratios() }},
		{"fig7", func() (figure, error) { return Fig7BFS(), nil }},
	}
	for _, a := range analysis {
		if has(a.id) {
			if err := emit(a.build()); err != nil {
				return err
			}
		}
	}
	if has("fig5") {
		res, err := suite(AssocSchemes())
		if err != nil {
			return err
		}
		if err := emit(res.Fig5IPC()); err != nil {
			return err
		}
	}

	eval := []struct {
		id    string
		build func(*SuiteResult) (*Table, error)
	}{
		{"fig10", (*SuiteResult).Fig10IPC},
		{"fig11a", (*SuiteResult).Fig11aTraffic},
		{"fig11b", (*SuiteResult).Fig11bEvictions},
		{"fig12a", (*SuiteResult).Fig12aHitRate},
		{"fig12b", (*SuiteResult).Fig12bHits},
		{"fig13", (*SuiteResult).Fig13ICNT},
	}
	needEval := false
	for _, e := range eval {
		needEval = needEval || has(e.id)
	}
	if needEval {
		res, err := suite(PaperSchemes())
		if err != nil {
			return err
		}
		for _, e := range eval {
			if has(e.id) {
				if err := emit(e.build(res)); err != nil {
					return err
				}
			}
		}
		if has("fig10") {
			if err := speedups(res, "== headline speedups (CI geometric mean vs baseline) =="); err != nil {
				return err
			}
		}
	}

	// The cross-policy comparison is explicitly opt-in (never part of
	// "all"): the committed reference outputs cover the paper's schemes
	// only, and must not drift as policies are added to the registry.
	if want["policies"] {
		res, err := suite(PolicySchemes())
		if err != nil {
			return err
		}
		if err := emit(res.Fig10IPC()); err != nil {
			return err
		}
		if err := speedups(res, "== cross-policy speedups (geometric mean vs baseline) =="); err != nil {
			return err
		}
	}
	return partial
}
