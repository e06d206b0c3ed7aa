package dlpsim

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/workloads"
)

// The paper scorecard: every claim of the paper's evaluation that the
// reproduction checks, written once, as data. Each claim names the cells
// it reads from the tables paperfigs prints (a G.MEANS cell or a per-app
// cell), the paper's value where the paper gives one, where that value
// comes from, and how the measurement is checked against it. paperfigs
// prints the verdicts (-exp scorecard, the last experiment of "all"),
// the TestHeadline* tests assert the rows marked asserted, and
// EXPERIMENTS.md and the README quote the printed table.

// checkKind is how a claim's cells are compared with the claim.
type checkKind int

const (
	// ordering: the cells are in strictly descending order.
	ordering checkKind = iota
	// sign: the cell lies on the same side of 1 (the baseline) as the
	// paper's value: a gain where the paper gains, a cut where it cuts.
	sign
	// band: the cell lies within limits (see claim.lo, tol and floor).
	band
	// exact: the cell equals the paper's value at the claim's format.
	exact
)

func (k checkKind) String() string {
	return [...]string{"ordering", "sign", "band", "exact"}[k]
}

// scoreCell names one value paperfigs prints: the cell of series at stat
// in the table of fig (the claim's own figure when empty). stat is "CI"
// or "CS" for a G.MEANS cell, an application label for a per-app cell,
// or "min(CS)"/"max(CI)"-style for the class's extreme per-app cell.
// With over set the value is the ratio of the series' cell to over's.
type scoreCell struct {
	fig, series, stat, over string
}

// claim is one row of the scorecard.
type claim struct {
	fig    string      // the paper's figure or section
	cells  []scoreCell // what is measured; several for an ordering
	paper  float64     // the paper's value; NaN for a shape-only claim
	source string      // a § of the paper, "≈ read from the figure", or "ours"
	check  checkKind
	// Band limits: lo is a floor of ours; with floor set the paper's own
	// value is the floor; a positive tol allows the paper's value ± tol
	// (relative).
	lo    float64
	floor bool
	tol   float64
	// format prints the measured value (and decides an exact check);
	// "%.3f" when empty.
	format string
	// headline names the claim of the paper the row is asserted under:
	// TestHeadline<headline> fails unless the row holds. Empty for a row
	// that is only reported.
	headline string
}

var noPaper = math.NaN()

// Shorthands for the claims table.
func gm(series, class string) scoreCell { return scoreCell{series: series, stat: class} }
func at(series, stat string) scoreCell  { return scoreCell{series: series, stat: stat} }

const (
	base = "16KB(Baseline)"
	sb   = "Stall-Bypass"
	gp   = "Global-Protection"
	dlp  = "DLP"
)

// paperClaims is the scorecard. The paper's values are the ones
// EXPERIMENTS.md has always recorded: quoted where the paper states them
// (its section), read off a figure where marked ≈. A band's floor lo is
// the reproduction's own, not the paper's, and its source says "ours".
var paperClaims = []claim{
	// Fig. 5: IPC at 16/32/64KB.
	{fig: "Fig. 5", cells: []scoreCell{gm("32KB", "CI"), gm("32KB", "CS")}, paper: noPaper,
		source: "≈ read from the figure", check: ordering}, // CS apps barely move
	{fig: "Fig. 5", cells: []scoreCell{gm("64KB", "CI"), gm("64KB", "CS")}, paper: noPaper,
		source: "≈ read from the figure", check: ordering},
	// The capacity step comes at 32KB: the 16→32KB gain exceeds 32→64KB's.
	{fig: "Fig. 5", cells: []scoreCell{{series: "32KB", over: "16KB", stat: "CI"}, {series: "64KB", over: "32KB", stat: "CI"}},
		paper: noPaper, source: "≈ read from the figure", check: ordering},
	{fig: "Fig. 5", cells: []scoreCell{at("64KB", "max(CI)")}, paper: 3.5,
		source: "≈ read from the figure", check: sign},

	// Fig. 10: normalized IPC.
	{fig: "Fig. 10", cells: []scoreCell{gm(dlp, "CI"), gm(gp, "CI"), gm(sb, "CI")}, paper: noPaper,
		source: "§6.1", check: ordering, headline: "IPCOrdering"},
	{fig: "Fig. 10", cells: []scoreCell{gm(sb, "CI")}, paper: 1.14, source: "§6.1", check: sign, headline: "IPCOrdering"},
	{fig: "Fig. 10", cells: []scoreCell{gm(gp, "CI")}, paper: 1.347, source: "§6.1", check: sign},
	{fig: "Fig. 10", cells: []scoreCell{gm(dlp, "CI")}, paper: 1.438, source: "§6.1", check: band, tol: 0.10},
	{fig: "Fig. 10", cells: []scoreCell{gm(dlp, "CI")}, paper: noPaper, source: "ours", check: band, lo: 1.10, headline: "IPCOrdering"},
	{fig: "Fig. 10", cells: []scoreCell{gm("32KB", "CI")}, paper: 1.50, source: "≈ read from the figure", check: band, tol: 0.10},
	{fig: "Fig. 10", cells: []scoreCell{gm("32KB", "CI")}, paper: noPaper, source: "ours", check: band, lo: 1.05, headline: "IPCOrdering"},
	{fig: "Fig. 10", cells: []scoreCell{at(sb, "max(CI)")}, paper: 1.46, source: "§6.1", check: sign},
	{fig: "Fig. 10", cells: []scoreCell{at(dlp, "max(CI)")}, paper: 2.37, source: "§6.1", check: sign},
	{fig: "Fig. 10", cells: []scoreCell{gm(sb, "CS")}, paper: 0.976, source: "§6.1.1", check: sign},
	{fig: "Fig. 10", cells: []scoreCell{gm(dlp, "CS")}, paper: 0.998, source: "§6.1.1; floor ours", check: band, lo: 0.99, headline: "CSSafety"},
	{fig: "Fig. 10", cells: []scoreCell{at(sb, "min(CS)")}, paper: 0.88, source: "§6.1.1 (BT)", check: sign},
	{fig: "Fig. 10", cells: []scoreCell{at(gp, "min(CS)")}, paper: noPaper, source: "ours", check: band, lo: 0.96},
	{fig: "Fig. 10", cells: []scoreCell{at(dlp, "min(CS)")}, paper: noPaper, source: "ours", check: band, lo: 0.96, headline: "CSSafety"},
	{fig: "Fig. 10", cells: []scoreCell{at(dlp, "min(CS)")}, paper: 0.97,
		source: "§6.1.1: no CS app loses more than ~3 %", check: band, floor: true},
	{fig: "Fig. 10", cells: []scoreCell{at(dlp, "max(CS)")}, paper: noPaper, source: "ours", check: band, lo: 1},
	{fig: "Fig. 10", cells: []scoreCell{at(dlp, "CFD"), at("32KB", "CFD")}, paper: noPaper,
		source: "§6.1.2", check: ordering, headline: "CFDBeatsBigCache"},
	{fig: "Fig. 10", cells: []scoreCell{at(dlp, "SR2K"), at("32KB", "SR2K")}, paper: noPaper,
		source: "§6.1.2", check: ordering, headline: "CFDBeatsBigCache"},

	// Fig. 11: L1D traffic and evictions. The paper's DLP bypasses the
	// most; ours the least (the orderings diverge).
	{fig: "Fig. 11a", cells: []scoreCell{gm(sb, "CI")}, paper: 0.716, source: "§6.2", check: sign},
	{fig: "Fig. 11a", cells: []scoreCell{gm(gp, "CI")}, paper: 0.598, source: "§6.2", check: sign},
	{fig: "Fig. 11a", cells: []scoreCell{gm(dlp, "CI")}, paper: 0.475, source: "§6.2", check: sign, headline: "TrafficReduction"},
	{fig: "Fig. 11a", cells: []scoreCell{gm(sb, "CI"), gm(gp, "CI"), gm(dlp, "CI")}, paper: noPaper,
		source: "§6.2", check: ordering},
	{fig: "Fig. 11b", cells: []scoreCell{gm(sb, "CI")}, paper: 0.565, source: "§6.2", check: sign},
	{fig: "Fig. 11b", cells: []scoreCell{gm(gp, "CI")}, paper: 0.357, source: "§6.2", check: sign},
	{fig: "Fig. 11b", cells: []scoreCell{gm(dlp, "CI")}, paper: 0.207, source: "§6.2", check: sign, headline: "TrafficReduction"},
	{fig: "Fig. 11b", cells: []scoreCell{gm(sb, "CI"), gm(gp, "CI"), gm(dlp, "CI")}, paper: noPaper,
		source: "§6.2", check: ordering},

	// Fig. 12: hit rate and hits. Where the baseline has almost no hits
	// (SRK, SR2K) a normalized hit count says nothing, so those rows
	// compare Fig. 12a's hit rates.
	{fig: "Fig. 12a", cells: []scoreCell{gm(dlp, "CI"), gm(gp, "CI"), gm(base, "CI")}, paper: noPaper,
		source: "§6.3", check: ordering, headline: "HitRate"},
	{fig: "Fig. 12b", cells: []scoreCell{{fig: "Fig. 12a", series: dlp, stat: "SRK"}, {fig: "Fig. 12a", series: base, stat: "SRK"}}, paper: noPaper,
		source: "§6.3", check: ordering},
	{fig: "Fig. 12b", cells: []scoreCell{{fig: "Fig. 12a", series: dlp, stat: "SR2K"}, {fig: "Fig. 12a", series: base, stat: "SR2K"}}, paper: noPaper,
		source: "§6.3", check: ordering},

	// Fig. 13: interconnect traffic.
	{fig: "Fig. 13", cells: []scoreCell{gm(sb, "CI")}, paper: 0.938, source: "§6.4 (−6.2 %)", check: sign},
	{fig: "Fig. 13", cells: []scoreCell{gm(dlp, "CI")}, paper: 0.885, source: "§6.4 (−11.5 %)", check: sign, headline: "ICNT"},
	{fig: "Fig. 13", cells: []scoreCell{gm(sb, "CI"), gm(dlp, "CI")}, paper: noPaper, source: "§6.4", check: ordering},
	{fig: "Fig. 13", cells: []scoreCell{gm(dlp, "CI"), {fig: "Fig. 11a", series: dlp, stat: "CI"}}, paper: noPaper,
		source: "§6.4", check: ordering, headline: "ICNT"},

	// §4.3: the hardware-overhead arithmetic.
	{fig: "§4.3", cells: []scoreCell{at(overheadSeries, "TDA extra (B)")}, paper: 176, source: "§4.3", check: exact, format: "%.0f"},
	{fig: "§4.3", cells: []scoreCell{at(overheadSeries, "VTA (B)")}, paper: 624, source: "§4.3", check: exact, format: "%.0f"},
	{fig: "§4.3", cells: []scoreCell{at(overheadSeries, "PDPT (B)")}, paper: 464, source: "§4.3", check: exact, format: "%.0f"},
	{fig: "§4.3", cells: []scoreCell{at(overheadSeries, "total (B)")}, paper: 1264, source: "§4.3", check: exact, format: "%.0f"},
	{fig: "§4.3", cells: []scoreCell{at(overheadSeries, "overhead (%)")}, paper: 7.48, source: "§4.3", check: exact, format: "%.2f"},
}

// overheadSeries names the §4.3 model's one series: the Table 1 machine.
const overheadSeries = "16KB(Baseline)"

// scoreRow is one claim with its measurement.
type scoreRow struct {
	claim
	measured []float64
	apps     []string // the application an extreme (min/max) cell picked, or ""
	holds    bool
}

// scorecard is the paper's claims, each with its measured value and
// verdict.
type scorecard struct {
	rows []scoreRow
}

// newScorecard measures every claim on complete suites of the full
// registry: eval under PaperSchemes (Figs. 10–13) and assoc under
// AssocSchemes (Fig. 5). The scorecard is nil, left out, when either
// suite misses an application of the registry or a point (an -apps
// subset, or a FAILED cell): its means would compare other application
// sets than the paper's.
func newScorecard(eval, assoc *SuiteResult) (sc *scorecard, err error) {
	if !eval.complete() || !assoc.complete() {
		return nil, nil
	}
	tables := map[string]*Table{}
	for _, b := range []struct {
		fig   string
		res   *SuiteResult
		build func(*SuiteResult) (*Table, error)
	}{
		{"Fig. 5", assoc, (*SuiteResult).Fig5IPC},
		{"Fig. 10", eval, (*SuiteResult).Fig10IPC},
		{"Fig. 11a", eval, (*SuiteResult).Fig11aTraffic},
		{"Fig. 11b", eval, (*SuiteResult).Fig11bEvictions},
		{"Fig. 12a", eval, (*SuiteResult).Fig12aHitRate},
		{"Fig. 12b", eval, (*SuiteResult).Fig12bHits},
		{"Fig. 13", eval, (*SuiteResult).Fig13ICNT},
	} {
		if tables[b.fig], err = b.build(b.res); err != nil {
			return nil, err
		}
	}
	o := HardwareOverhead(BaselineConfig())
	tables["§4.3"] = &Table{
		Apps: []string{"TDA extra (B)", "VTA (B)", "PDPT (B)", "total (B)", "overhead (%)"},
		Series: []Series{{Name: overheadSeries, Values: []float64{
			float64(o.TDAExtraBytes), float64(o.VTABytes), float64(o.PDPTBytes), float64(o.TotalBytes), o.Percent}}},
	}

	sc = &scorecard{rows: make([]scoreRow, len(paperClaims))}
	for i, c := range paperClaims {
		r := scoreRow{claim: c}
		for _, cell := range c.cells {
			fig := cell.fig
			if fig == "" {
				fig = c.fig
			}
			v, app, err := tableCell(tables[fig], cell.series, cell.stat)
			if err != nil {
				return nil, fmt.Errorf("scorecard %s: %w", fig, err)
			}
			if cell.over != "" {
				d, _, err := tableCell(tables[fig], cell.over, cell.stat)
				if err != nil {
					return nil, fmt.Errorf("scorecard %s: %w", fig, err)
				}
				v /= d
			}
			r.measured = append(r.measured, v)
			r.apps = append(r.apps, app)
		}
		r.holds = c.verdict(r.measured)
		sc.rows[i] = r
	}
	return sc, nil
}

// complete reports whether r holds a result for every point of the full
// registry.
func (r *SuiteResult) complete() bool {
	registry := workloads.Abbrs()
	if len(r.Apps) != len(registry) {
		return false
	}
	for i, spec := range r.Apps {
		if spec.Abbr != registry[i] {
			return false
		}
		for _, sc := range r.Schemes {
			if r.Stats[spec.Abbr][sc.Name] == nil {
				return false
			}
		}
	}
	return true
}

// verdict decides the claim on its measured cells.
func (c claim) verdict(m []float64) bool {
	switch c.check {
	case ordering:
		for i := 1; i < len(m); i++ {
			if !(m[i-1] > m[i]) {
				return false
			}
		}
		return true
	case sign:
		return (m[0]-1)*(c.paper-1) > 0
	case exact:
		return fmt.Sprintf(c.valueFormat(), m[0]) == fmt.Sprintf(c.valueFormat(), c.paper)
	}
	lo, hi := c.lo, math.Inf(1)
	switch {
	case c.floor:
		lo = c.paper
	case c.tol > 0:
		lo, hi = c.paper*(1-c.tol), c.paper*(1+c.tol)
	}
	return m[0] >= lo && m[0] <= hi
}

func (c claim) valueFormat() string {
	if c.format == "" {
		return "%.3f"
	}
	return c.format
}

// tableCell returns the value of t's series at stat (see scoreCell) and,
// for an extreme cell, the application it picked.
func tableCell(t *Table, series, stat string) (float64, string, error) {
	for _, s := range t.Series {
		if s.Name != series {
			continue
		}
		if stat == "CI" || stat == "CS" {
			return t.GroupMean(s, stat), "", nil
		}
		if ext, class, ok := strings.Cut(strings.TrimSuffix(stat, ")"), "("); ok && (ext == "min" || ext == "max") {
			best, app := math.NaN(), ""
			for i, v := range s.Values {
				if t.Classes[i] == class && (app == "" || ext == "min" && v < best || ext == "max" && v > best) {
					best, app = v, t.Apps[i]
				}
			}
			return best, app, nil
		}
		for i, a := range t.Apps {
			if a == stat {
				return s.Values[i], "", nil
			}
		}
		return 0, "", fmt.Errorf("no application %q", stat)
	}
	return 0, "", fmt.Errorf("no series %q", series)
}

// verdict is "holds" or "diverges".
func (r *scoreRow) verdict() string {
	if r.holds {
		return "holds"
	}
	return "diverges"
}

// fields are the row's printed columns: figure, row, statistic, paper,
// measured, ratio, check, source, asserted, verdict.
func (r *scoreRow) fields() []string {
	labels := make([]string, len(r.cells))
	sameStat, sameFig := true, true
	for i, c := range r.cells {
		sameStat = sameStat && c.stat == r.cells[0].stat
		sameFig = sameFig && c.fig == r.cells[0].fig
		labels[i] = c.series
		if c.over != "" {
			labels[i] += "÷" + c.over
		}
	}
	stat := statLabel(r.cells[0].stat)
	if other := r.cells[0].fig; sameFig && other != "" {
		stat += " (" + other + ")" // every cell is read from another figure
	}
	vals := make([]string, len(r.cells))
	for i, c := range r.cells {
		if !sameStat {
			labels[i] += " " + statLabel(c.stat)
		}
		if !sameFig && c.fig != "" {
			labels[i] += " (" + c.fig + ")"
		}
		vals[i] = fmt.Sprintf(r.valueFormat(), r.measured[i])
		if r.apps[i] != "" {
			vals[i] += " (" + r.apps[i] + ")"
		}
	}
	if !sameStat {
		stat = "—"
	}
	paper, ratio := "—", "—"
	if !math.IsNaN(r.paper) {
		paper = fmt.Sprintf("%g", r.paper)
		ratio = fmt.Sprintf("%.3f", r.measured[0]/r.paper)
	}
	check := r.check.String()
	switch {
	case r.check != band:
	case r.floor:
		check += " ≥ paper"
	case r.tol > 0:
		check += fmt.Sprintf(" ±%g %%", r.tol*100)
	default:
		check += fmt.Sprintf(" ≥ %g", r.lo)
	}
	asserted := "—"
	if r.headline != "" {
		asserted = "yes"
	}
	return []string{r.fig, strings.Join(labels, " > "), stat, paper,
		strings.Join(vals, " > "), ratio, check, r.source, asserted, r.verdict()}
}

func statLabel(stat string) string {
	if stat == "CI" || stat == "CS" {
		return "G.MEANS(" + stat + ")"
	}
	return stat
}

var scoreHeader = []string{"figure", "row", "statistic", "paper", "measured", "ratio", "check", "source", "asserted", "verdict"}

// Render writes the scorecard as an aligned text table.
func (sc *scorecard) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "== scorecard: the paper's claims, paper vs measured =="); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(scoreHeader, "\t"))
	for i := range sc.rows {
		fmt.Fprintln(tw, strings.Join(sc.rows[i].fields(), "\t"))
	}
	return tw.Flush()
}

// RenderCSV writes the scorecard as comma-separated values, one line per
// row, with the text table's columns.
func (sc *scorecard) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(scoreHeader); err != nil {
		return err
	}
	for i := range sc.rows {
		if err := cw.Write(sc.rows[i].fields()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
