// Package report formats the experiment harness's results as aligned
// text tables: per-application series with the paper's geometric-mean
// columns (Figs. 5 and 10–13) and bucketed distribution tables (Figs. 3
// and 7).
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/stats"
)

// Series is one named line/bar series over the application list.
type Series struct {
	Name   string
	Values []float64
}

// Table is a set of series over the same applications, optionally split
// into CS/CI groups with per-group geometric means, mirroring the
// G.MEANS bars in the paper's figures.
type Table struct {
	Title   string
	Apps    []string // column labels
	Classes []string // "CS" or "CI" per app; empty disables G.MEANS rows
	Series  []Series
	Format  string // value format, default "%.3f"
}

// AddSeries appends a series; its length must match Apps.
func (t *Table) AddSeries(name string, values []float64) error {
	if len(values) != len(t.Apps) {
		return fmt.Errorf("report: series %q has %d values for %d apps",
			name, len(values), len(t.Apps))
	}
	t.Series = append(t.Series, Series{Name: name, Values: values})
	return nil
}

// cell formats one table value. NaN is the harness's marker for a point
// that has no result — its job failed and the suite ran in keep-going
// mode — and renders as an explicit FAILED cell rather than a number,
// so partial tables can never be mistaken for complete ones.
func cell(format string, v float64) string {
	if math.IsNaN(v) {
		return "FAILED"
	}
	return fmt.Sprintf(format, v)
}

// GroupMean returns the geometric mean of one series restricted to apps
// of one class. Non-positive entries (e.g. an application whose baseline
// counter is zero, making normalization meaningless) and NaN entries
// (failed jobs in a keep-going run) are skipped rather than poisoning
// the mean. Note NaN > 0 is false, so the one filter covers both.
// When no entry survives — every point of the class failed, or the
// class is absent from an -apps subset — there is no mean to report,
// and the cell must say so: NaN renders as FAILED, where a silent 0
// would read as a measured (and alarming) result. It is the one class
// mean of the harness: the G.MEANS cells, the speedup summaries and the
// paper scorecard all read it.
func (t *Table) GroupMean(s Series, class string) float64 {
	var vals []float64
	for i, c := range t.Classes {
		if c == class && s.Values[i] > 0 {
			vals = append(vals, s.Values[i])
		}
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	return stats.GeoMean(vals)
}

// Render writes the table. Layout: one row per series, one column per
// application, with G.MEANS(CS) and G.MEANS(CI) columns when classes are
// present.
func (t *Table) Render(w io.Writer) error {
	format := t.Format
	if format == "" {
		format = "%.3f"
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := append([]string{"scheme"}, t.Apps...)
	if len(t.Classes) == len(t.Apps) {
		header = append(header, "G.MEANS(CS)", "G.MEANS(CI)")
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, s := range t.Series {
		cells := make([]string, 0, len(s.Values)+3)
		cells = append(cells, s.Name)
		for _, v := range s.Values {
			cells = append(cells, cell(format, v))
		}
		if len(t.Classes) == len(t.Apps) {
			cells = append(cells,
				cell(format, t.GroupMean(s, "CS")),
				cell(format, t.GroupMean(s, "CI")))
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	return tw.Flush()
}

// Distribution renders a bucketed-fraction table (Figs. 3 and 7): one
// row per item, one column per bucket, values as percentages.
type Distribution struct {
	Title   string
	Buckets []string
	Rows    []DistRow
}

// DistRow is one item's bucket fractions (summing to ~1).
type DistRow struct {
	Label     string
	Fractions []float64
}

// Render writes the distribution table.
func (d *Distribution) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", d.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(append([]string{"item"}, d.Buckets...), "\t"))
	for _, r := range d.Rows {
		cells := []string{r.Label}
		for _, f := range r.Fractions {
			cells = append(cells, fmt.Sprintf("%.1f%%", f*100))
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	return tw.Flush()
}

// RenderCSV writes the table as comma-separated values, one row per
// series, suitable for spreadsheet import or plotting scripts.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	format := t.Format
	if format == "" {
		format = "%.6g"
	}
	header := append([]string{"scheme"}, t.Apps...)
	withMeans := len(t.Classes) == len(t.Apps)
	if withMeans {
		header = append(header, "gmean_cs", "gmean_ci")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range t.Series {
		row := make([]string, 0, len(header))
		row = append(row, s.Name)
		for _, v := range s.Values {
			row = append(row, cell(format, v))
		}
		if withMeans {
			row = append(row,
				cell(format, t.GroupMean(s, "CS")),
				cell(format, t.GroupMean(s, "CI")))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderCSV writes the distribution with fractional (0..1) values.
func (d *Distribution) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"item"}, d.Buckets...)); err != nil {
		return err
	}
	for _, r := range d.Rows {
		row := make([]string, 0, len(d.Buckets)+1)
		row = append(row, r.Label)
		for _, f := range r.Fractions {
			row = append(row, fmt.Sprintf("%.6f", f))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
