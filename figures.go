package dlpsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/addr"
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

// Scheme is one (policy, configuration) combination plotted in the
// paper's evaluation figures or swept by an ablation. Config is
// read-only: the suite shares it between every application's job.
type Scheme struct {
	Name   string
	Policy Policy
	Config *Config
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
		out = append(out, Scheme{name, p, config.Baseline()})
	}
	return append(out, Scheme{"32KB", Baseline, config.L1D32KB()})
}

// PolicySchemes are every registered policy at the paper's 16KB L1D —
// the paper's four schemes followed by the literature additions — for
// cross-policy comparison tables (paperfigs -exp policies).
func PolicySchemes() []Scheme {
	all := policy.All()
	out := make([]Scheme, len(all))
	for i, p := range all {
		out[i] = Scheme{p.String(), p, config.Baseline()}
	}
	return out
}

// AssocSchemes are the three cache sizes of Figures 4 and 5.
func AssocSchemes() []Scheme {
	return []Scheme{
		{"16KB", Baseline, config.Baseline()},
		{"32KB", Baseline, config.L1D32KB()},
		{"64KB", Baseline, config.L1D64KB()},
	}
}

// SuiteResult holds one simulation per (application, scheme).
type SuiteResult struct {
	Apps    []Workload
	Schemes []Scheme
	// Stats[appAbbr][schemeName]
	Stats map[string]map[string]*Stats
}

// RunSuite simulates every application under every scheme on r's worker
// pool; a nil r is the default runner (GOMAXPROCS workers, no cache) and
// nil apps the full Table 2 registry. Share one runner, and with it one
// cache, across calls so overlapping points simulate once.
//
// The frontend is the code's choice: a single simulation point streams
// (dlpsim, RunApp), and a suite runs every scheme of an application over
// one shared packed kernel, because packing once beats a stream refill
// per job when one application runs under many schemes.
//
// The tables are deterministic at any worker count: jobs are scattered
// back into the (app, scheme) grid by submission index, and the engine
// is deterministic. With r.KeepGoing set, RunSuite returns the partial
// result (failed points hold nil Stats and render as FAILED cells)
// together with a *BatchError describing every failure.
func RunSuite(ctx context.Context, r *Runner, apps []Workload, schemes []Scheme) (*SuiteResult, error) {
	if len(schemes) == 0 {
		return nil, errors.New("dlpsim: RunSuite needs at least one scheme")
	}
	if apps == nil {
		apps = workloads.All()
	}
	if r == nil {
		r = &runner.Runner{}
	}

	// Each scheme's config is validated once, not once per (app,
	// scheme) pair.
	for _, sc := range schemes {
		if err := sc.Config.Validate(); err != nil {
			return nil, err
		}
	}
	lineSize := schemes[0].Config.L1D.LineSize

	jobs := make([]runner.Job, 0, len(apps)*len(schemes))
	for _, spec := range apps {
		// One kernel shared by every scheme's job — and, via the
		// process-wide cache, by every other suite in the process.
		k := spec.SharedKernel(lineSize)
		for _, sc := range schemes {
			jobs = append(jobs, runner.Job{
				Label:  spec.Abbr + " under " + sc.Name,
				Config: sc.Config,
				Policy: sc.Policy,
				Kernel: k,
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

// The workload analysis (Figs. 3, 4, 6, 7 and 9) is one pass over each
// application's trace, so each builder generates the kernels it replays
// and drops them as it goes: nothing of it outlives the call. The replay
// and Summarize coalesce from the instructions, so no kernel is packed.

// Fig3RDD profiles every application and returns the program-level
// reuse-distance distribution table.
func Fig3RDD() *Distribution {
	cfg := config.Baseline()
	d := &Distribution{
		Title:   "Fig. 3: reuse distance distribution per application",
		Buckets: rdd.BucketLabels,
	}
	for _, spec := range workloads.All() {
		prof := rdd.ProfileKernel(spec.Generate(), cfg.NumSMs, cfg.L1D)
		d.Rows = append(d.Rows, report.DistRow{
			Label:     spec.Abbr,
			Fractions: prof.GlobalFractions(),
		})
	}
	return d
}

// Fig4MissRates replays every application through 16/32/64KB LRU caches
// and tabulates the reuse-data miss rate (compulsory misses excluded).
// Each application is generated once and replayed at all three sizes.
func Fig4MissRates() (*Table, error) {
	schemes := AssocSchemes()
	specs := workloads.All()
	apps := make([]string, len(specs))
	vals := make([][]float64, len(schemes))
	n := config.Baseline().NumSMs
	for ai, spec := range specs {
		apps[ai] = spec.Abbr
		k := spec.Generate()
		for si, sc := range schemes {
			vals[si] = append(vals[si], rdd.ReuseMissRate(k, n, sc.Config.L1D))
		}
	}
	t := &Table{Title: "Fig. 4: reuse-data miss rate vs L1D size", Apps: apps}
	for i, sc := range schemes {
		if err := t.AddSeries(sc.Name, vals[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig6Ratios tabulates the memory-access ratio of every application in
// ascending order with its CS/CI classification (1% threshold).
func Fig6Ratios() (*Table, error) {
	lineSize := config.Baseline().L1D.LineSize
	type point struct {
		spec  Workload
		ratio float64
	}
	points := make([]point, 0, 18)
	for _, spec := range workloads.All() {
		points = append(points, point{spec, spec.Generate().Summarize(lineSize).MemoryAccessRatio()})
	}
	sort.SliceStable(points, func(i, j int) bool { return points[i].ratio < points[j].ratio })
	apps := make([]string, len(points))
	vals := make([]float64, len(points))
	ci := make([]float64, len(points))
	for i, p := range points {
		apps[i] = p.spec.Abbr
		vals[i] = p.ratio * 100
		if p.spec.Class == workloads.CI {
			ci[i] = 1
		}
	}
	t := &Table{Title: "Fig. 6: memory access ratio (%, sorted)", Apps: apps, Format: "%.3f"}
	if err := t.AddSeries("ratio%", vals); err != nil {
		return nil, err
	}
	if err := t.AddSeries("CI?(>1%)", ci); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig7RDD returns the per-instruction RDD of one application; the paper
// plots BFS.
func Fig7RDD(spec Workload) *Distribution {
	cfg := config.Baseline()
	prof := rdd.ProfileKernel(spec.Generate(), cfg.NumSMs, cfg.L1D)
	d := &Distribution{
		Title:   "Fig. 7: per-instruction RDD of " + spec.Abbr,
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

// fig9Samples is how many sampling periods Fig. 9 traces.
const fig9Samples = 20

// Fig9PD traces the Fig. 9 dynamics of one application: SM 0's share of
// its kernel is replayed through one DLP-managed L1D with ideal memory
// behind it (rdd.L1DReplay), and each of the first fig9Samples sampling
// periods is a column holding the global TDA and VTA hits the closing
// decision was made from — read before the access or instruction note
// that closed the period — the branch taken (+1 increase, -1 decrease, 0
// hold) and the protection distance it left each memory instruction
// with. The cache's DLP invariants are checked after every sample and at
// the end.
func Fig9PD(spec Workload) (*Table, error) {
	cfg := config.Baseline()
	k := spec.Generate()
	seen := map[uint32]bool{}
	for _, b := range k.Blocks {
		for _, w := range b.Warps {
			for i := range w.Instrs {
				if in := &w.Instrs[i]; in.Kind != trace.Compute {
					seen[in.PC] = true
				}
			}
		}
	}
	pcs := make([]uint32, 0, len(seen))
	for pc := range seen {
		pcs = append(pcs, pc)
	}
	slices.Sort(pcs)

	t := &Table{Format: "%.0f", Series: []Series{{Name: "TDA hits"}, {Name: "VTA hits"}, {Name: "branch"}}}
	for _, pc := range pcs {
		t.Series = append(t.Series, Series{Name: fmt.Sprintf("PD(insn%d)", pc)})
	}
	l1d := rdd.NewL1DReplay(cfg, config.PolicyDLP)
	pdpt := l1d.PDPT()
	var tda, vta, grows, shrinks uint64 // a fresh cache has none of them yet
	var err error
	if rerr := l1d.Replay(rdd.PerSM(k, cfg.NumSMs)[0], func() bool {
		s := pdpt.Samples()
		if int(s) > len(t.Apps) {
			g, sh := pdpt.Branches() // one period closed: at most one of them moved
			col := []float64{float64(tda), float64(vta), float64(g-grows) - float64(sh-shrinks)}
			grows, shrinks = g, sh
			for _, pc := range pcs {
				col = append(col, float64(pdpt.PD(addr.HashPC(pc))))
			}
			for i, v := range col {
				t.Series[i].Values = append(t.Series[i].Values, v)
			}
			t.Apps = append(t.Apps, strconv.Itoa(int(s)))
			if err = l1d.CheckInvariants(); err != nil {
				err = fmt.Errorf("fig9 %s: after sample %d: %w", spec.Abbr, s, err)
				return false
			}
		}
		tda, vta = pdpt.GlobalHits()
		return s < fig9Samples
	}); rerr != nil {
		err = fmt.Errorf("fig9 %s: %w", spec.Abbr, rerr)
	}
	if err != nil {
		return nil, err
	}
	if err := l1d.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("fig9 %s: after the replay: %w", spec.Abbr, err)
	}
	st := l1d.Stats()
	t.Title = fmt.Sprintf("Fig. 9: DLP protection distances per sampling period of %s (accesses=%d hits=%d bypasses=%d vta_hits=%d hit_rate=%.3f)",
		spec.Abbr, st.L1DAccesses, st.L1DHits, st.L1DBypasses, st.VTAHits, st.L1DHitRate())
	return t, nil
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
// geometric-mean IPC of every scheme relative to the first, the
// G.MEANS cells of Fig10IPC. NaN cells (failed points in a partial,
// KeepGoing suite) are excluded from the means; if every point of a
// class failed, the resulting NaN geomean is reported as an error rather
// than a fabricated number.
func (r *SuiteResult) Speedups() (map[string]map[string]float64, error) {
	t, err := r.Fig10IPC()
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]float64)
	for _, s := range t.Series {
		m := map[string]float64{"CS": t.GroupMean(s, "CS"), "CI": t.GroupMean(s, "CI")}
		for k, v := range m {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("dlpsim: NaN %s geomean for scheme %s", k, s.Name)
			}
		}
		out[s.Name] = m
	}
	return out, nil
}

// paperFigIDs are the experiments of "all", the paper scorecard last.
// The cross-policy table ("policies") and the ablation sweeps are opt-in
// only, so the committed reference outputs do not drift as policies and
// sweeps are added.
var paperFigIDs = []string{"table2", "overhead", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9",
	"fig10", "fig11a", "fig11b", "fig12a", "fig12b", "fig13", "scorecard"}

// experimentIDs expands exps, a comma-separated list of experiment ids,
// into the set of experiments WritePaperFigs prints: "all" is every
// paperFigIDs entry, "ablations" every Paper sweep, and any other id
// itself. An unknown id is an error, and so is a sweep under csv: an
// Ablation has no CSV form.
func experimentIDs(exps string, csv bool) (map[string]bool, error) {
	valid := append(append([]string{"all"}, paperFigIDs...), "policies", "ablations")
	sweep := map[string]bool{"ablations": true}
	var paperSweeps []string
	for _, sw := range Sweeps() {
		valid = append(valid, sw.Name)
		sweep[sw.Name] = true
		if sw.Paper {
			paperSweeps = append(paperSweeps, sw.Name)
		}
	}
	want := map[string]bool{}
	for _, id := range strings.Split(exps, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		ids := []string{id}
		switch {
		case !slices.Contains(valid, id):
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		case csv && sweep[id]:
			return nil, fmt.Errorf("experiment %q is an ablation sweep, which has no csv form", id)
		case id == "all":
			ids = paperFigIDs
		case id == "ablations":
			ids = paperSweeps
		}
		for _, id := range ids {
			want[id] = true
		}
	}
	return want, nil
}

// WritePaperFigs writes what `paperfigs -exp exps` prints to stdout:
// the experiments named in the comma-separated exps (see experimentIDs),
// in the command's fixed order, as text tables or CSV. An unknown id or
// application is an error before anything is written. Each experiment
// has its own applications — every registry application for the suites,
// BFS for Fig. 7 as in the paper, CFD for Fig. 9, DefaultAblationApps
// for the sweeps — unless apps names them (figure labels, any case). run
// executes one scheme set on the given applications (RunSuite in the
// command, cached suites in the drift test). A suite that comes back
// together with an error is partial (KeepGoing): its tables render with
// FAILED cells, the speedup summaries — means over an incomplete suite
// would compare schemes on different application subsets — are left
// out, and the error is returned once everything else has been written.
// The scorecard reads the Fig. 5 and Fig. 10–13 suites and simulates
// nothing of its own; it is left out under -apps and unless both suites
// completed on the full registry.
func WritePaperFigs(w io.Writer, exps string, csv bool, apps []string, run func([]Workload, []Scheme) (*SuiteResult, error)) error {
	want, err := experimentIDs(exps, csv)
	if err != nil {
		return err
	}
	appsOr := func(defaults []string) ([]Workload, error) {
		if len(apps) > 0 {
			defaults = apps
		}
		out := make([]Workload, len(defaults))
		for i, abbr := range defaults {
			var err error
			if out[i], err = WorkloadByAbbr(strings.TrimSpace(abbr)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if _, err := appsOr(nil); err != nil {
		return err
	}
	if len(apps) > 0 {
		delete(want, "scorecard") // a subset's means are not the paper's: run nothing for it
	}

	var partial error
	suite := func(defaults []string, schemes []Scheme) (*SuiteResult, error) {
		apps, err := appsOr(defaults)
		if err != nil {
			return nil, err
		}
		res, err := run(apps, schemes)
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

	if want["table2"] {
		fmt.Fprintln(w, Table2())
	}
	if want["overhead"] {
		fmt.Fprintln(w, OverheadReport(BaselineConfig()))
	}
	analysis := []struct {
		id    string
		build func() (figure, error)
	}{
		{"fig3", func() (figure, error) { return Fig3RDD(), nil }},
		{"fig4", func() (figure, error) { return Fig4MissRates() }},
		{"fig6", func() (figure, error) { return Fig6Ratios() }},
	}
	for _, a := range analysis {
		if want[a.id] {
			if err := emit(a.build()); err != nil {
				return err
			}
		}
	}
	perApp := []struct {
		id       string
		defaults []string
		build    func(Workload) (figure, error)
	}{
		{"fig7", []string{"BFS"}, func(app Workload) (figure, error) { return Fig7RDD(app), nil }},
		{"fig9", []string{"CFD"}, func(app Workload) (figure, error) { return Fig9PD(app) }},
	}
	for _, f := range perApp {
		if !want[f.id] {
			continue
		}
		apps, err := appsOr(f.defaults)
		if err != nil {
			return err
		}
		for _, app := range apps {
			if err := emit(f.build(app)); err != nil {
				return err
			}
		}
	}
	var assoc, eval *SuiteResult
	if want["fig5"] || want["scorecard"] {
		if assoc, err = suite(workloads.Abbrs(), AssocSchemes()); err != nil {
			return err
		}
		if want["fig5"] {
			if err := emit(assoc.Fig5IPC()); err != nil {
				return err
			}
		}
	}

	evalFigs := []struct {
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
	for _, e := range evalFigs {
		needEval = needEval || want[e.id]
	}
	if needEval || want["scorecard"] {
		if eval, err = suite(workloads.Abbrs(), PaperSchemes()); err != nil {
			return err
		}
		for _, e := range evalFigs {
			if want[e.id] {
				if err := emit(e.build(eval)); err != nil {
					return err
				}
			}
		}
		if want["fig10"] {
			if err := speedups(eval, "== headline speedups (CI geometric mean vs baseline) =="); err != nil {
				return err
			}
		}
	}
	if want["scorecard"] {
		sc, err := newScorecard(eval, assoc)
		if err != nil {
			return err
		}
		if sc != nil {
			if want["fig10"] {
				fmt.Fprintln(w)
			}
			if err := emit(sc, nil); err != nil {
				return err
			}
		}
	}

	if want["policies"] {
		res, err := suite(workloads.Abbrs(), PolicySchemes())
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
	for _, sw := range Sweeps() {
		if !want[sw.Name] {
			continue
		}
		res, err := suite(DefaultAblationApps(), sw.Schemes())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sw.Ablation(res).Render())
	}
	return partial
}
