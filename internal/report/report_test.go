package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "IPC",
		Apps:    []string{"A", "B", "C", "D"},
		Classes: []string{"CS", "CS", "CI", "CI"},
	}
	if err := tbl.AddSeries("Baseline", []float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddSeries("DLP", []float64{1, 1, 2, 8}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== IPC ==", "Baseline", "DLP", "G.MEANS(CS)", "G.MEANS(CI)", "4.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRejectsWrongLength(t *testing.T) {
	tbl := &Table{Title: "x", Apps: []string{"A", "B"}}
	if err := tbl.AddSeries("bad", []float64{1}); err == nil {
		t.Error("mismatched series accepted")
	}
}

func TestTableWithoutClassesOmitsMeans(t *testing.T) {
	tbl := &Table{Title: "x", Apps: []string{"A"}}
	if err := tbl.AddSeries("s", []float64{2}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "G.MEANS") {
		t.Error("G.MEANS rendered without class info")
	}
}

func TestGroupMean(t *testing.T) {
	tbl := &Table{
		Apps:    []string{"A", "B", "C"},
		Classes: []string{"CS", "CI", "CI"},
	}
	s := Series{Values: []float64{7, 2, 8}}
	if got := tbl.GroupMean(s, "CI"); math.Abs(got-4) > 1e-12 {
		t.Errorf("CI mean = %v, want 4", got)
	}
	if got := tbl.GroupMean(s, "CS"); got != 7 {
		t.Errorf("CS mean = %v, want 7", got)
	}
}

func TestTableCustomFormat(t *testing.T) {
	tbl := &Table{Title: "x", Apps: []string{"A"}, Format: "%.1f"}
	tbl.AddSeries("s", []float64{2.25})
	var b strings.Builder
	tbl.Render(&b)
	if !strings.Contains(b.String(), "2.2") || strings.Contains(b.String(), "2.250") {
		t.Errorf("custom format ignored:\n%s", b.String())
	}
}

func TestDistributionRender(t *testing.T) {
	d := &Distribution{
		Title:   "RDD",
		Buckets: []string{"1~4", "5~8", "9~64", ">65"},
		Rows: []DistRow{
			{Label: "BFS", Fractions: []float64{0.25, 0.25, 0.3, 0.2}},
		},
	}
	var b strings.Builder
	if err := d.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== RDD ==", "BFS", "25.0%", "30.0%", "20.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGroupMeanSkipsNonPositive(t *testing.T) {
	tbl := &Table{
		Apps:    []string{"A", "B", "C"},
		Classes: []string{"CS", "CS", "CS"},
	}
	s := Series{Values: []float64{0, 2, 8}}
	if got := tbl.GroupMean(s, "CS"); got != 4 {
		t.Errorf("GroupMean with a zero entry = %v, want 4 (zero skipped)", got)
	}
	empty := Series{Values: []float64{0, 0, 0}}
	if got := tbl.GroupMean(empty, "CS"); !math.IsNaN(got) {
		t.Errorf("GroupMean of all-zero series = %v, want NaN (renders FAILED)", got)
	}
	// A class with no apps at all (e.g. an -apps subset) likewise has no
	// mean — 0 here would render as a measured result.
	if got := tbl.GroupMean(s, "CI"); !math.IsNaN(got) {
		t.Errorf("GroupMean of absent class = %v, want NaN", got)
	}
}

// TestAllFailedColumnRendersFAILED pins the keep-going worst case: a
// class where every single point failed must render FAILED in both the
// per-app cells and the geomean columns — never panic, never print NaN
// or 0.000 — in the text and CSV renderers alike.
func TestAllFailedColumnRendersFAILED(t *testing.T) {
	tbl := &Table{
		Title:   "x",
		Apps:    []string{"A", "B", "C"},
		Classes: []string{"CS", "CI", "CI"},
	}
	nan := math.NaN()
	tbl.AddSeries("DLP", []float64{1.5, nan, nan}) // every CI point failed

	var text strings.Builder
	if err := tbl.Render(&text); err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := tbl.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{"text": text.String(), "csv": csv.String()} {
		if strings.Contains(got, "NaN") {
			t.Errorf("%s renderer leaked NaN:\n%s", name, got)
		}
		if strings.Count(got, "FAILED") != 3 { // two CI cells + the CI geomean
			t.Errorf("%s renderer: want 3 FAILED cells:\n%s", name, got)
		}
		if !strings.Contains(got, "1.5") {
			t.Errorf("%s renderer lost the surviving CS cell:\n%s", name, got)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := &Table{
		Title:   "x",
		Apps:    []string{"A", "B"},
		Classes: []string{"CS", "CI"},
	}
	tbl.AddSeries("DLP", []float64{1.5, 2})
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	wantHeader := "scheme,A,B,gmean_cs,gmean_ci\n"
	if !strings.HasPrefix(got, wantHeader) {
		t.Errorf("CSV header = %q", got)
	}
	if !strings.Contains(got, "DLP,1.5,2,1.5,2") {
		t.Errorf("CSV row wrong:\n%s", got)
	}
}

func TestDistributionRenderCSV(t *testing.T) {
	d := &Distribution{
		Buckets: []string{"a", "b"},
		Rows:    []DistRow{{Label: "X", Fractions: []float64{0.25, 0.75}}},
	}
	var b strings.Builder
	if err := d.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "item,a,b") || !strings.Contains(got, "X,0.250000,0.750000") {
		t.Errorf("distribution CSV wrong:\n%s", got)
	}
}
