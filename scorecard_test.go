package dlpsim

import (
	"encoding/csv"
	"errors"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workloads"
)

// synthSuite builds a complete suite over the full registry with
// synthetic counters: scheme s runs every CI application ipc[s] times as
// fast as the first scheme (1 when absent), and CS applications as fast.
func synthSuite(schemes []Scheme, ipc map[string]float64) *SuiteResult {
	res := &SuiteResult{Apps: workloads.All(), Schemes: schemes, Stats: map[string]map[string]*Stats{}}
	for _, app := range res.Apps {
		res.Stats[app.Abbr] = map[string]*Stats{}
		for _, sc := range schemes {
			f, ok := ipc[sc.Name]
			if !ok || app.Class != workloads.CI {
				f = 1
			}
			res.Stats[app.Abbr][sc.Name] = &stats.Stats{
				Cycles: 1e6, Instructions: uint64(1e6 * f),
				L1DTraffic: 100, L1DEvictions: 50, L1DHits: 20, L1DMisses: 80, L1DAccesses: 100, ICNTFlits: 500,
			}
		}
	}
	return res
}

func synthScorecard(t *testing.T, ipc map[string]float64) *scorecard {
	t.Helper()
	sc, err := newScorecard(synthSuite(PaperSchemes(), ipc), synthSuite(AssocSchemes(), map[string]float64{"32KB": 1.1, "64KB": 1.5}))
	if err != nil || sc == nil {
		t.Fatalf("synthetic scorecard: %v, err=%v", sc, err)
	}
	return sc
}

// scoreVerdict returns the verdict of the one row printed with the given
// figure, row, statistic and check.
func scoreVerdict(t *testing.T, sc *scorecard, fig, row, stat, check string) string {
	t.Helper()
	var got []string
	for i := range sc.rows {
		if f := sc.rows[i].fields(); f[0] == fig && f[1] == row && f[2] == stat && f[6] == check {
			got = append(got, f[9])
		}
	}
	if len(got) != 1 {
		t.Fatalf("%d scorecard rows %s / %s / %s / %s, want 1", len(got), fig, row, stat, check)
	}
	return got[0]
}

func TestScorecardBandFlipsAtItsEdge(t *testing.T) {
	for _, c := range []struct {
		dlp  float64
		want string
	}{{1.1001, "holds"}, {1.0999, "diverges"}} {
		sc := synthScorecard(t, map[string]float64{"DLP": c.dlp})
		if got := scoreVerdict(t, sc, "Fig. 10", "DLP", "G.MEANS(CI)", "band ≥ 1.1"); got != c.want {
			t.Errorf("DLP CI geomean %v: %s, want %s", c.dlp, got, c.want)
		}
	}
}

func TestScorecardOrderingFlipsWhenSchemesSwap(t *testing.T) {
	row := "DLP > Global-Protection > Stall-Bypass"
	ipc := map[string]float64{"DLP": 1.15, "Global-Protection": 1.08, "Stall-Bypass": 1.05}
	if got := scoreVerdict(t, synthScorecard(t, ipc), "Fig. 10", row, "G.MEANS(CI)", "ordering"); got != "holds" {
		t.Errorf("DLP > GP > SB: %s, want holds", got)
	}
	ipc["Global-Protection"], ipc["Stall-Bypass"] = ipc["Stall-Bypass"], ipc["Global-Protection"]
	if got := scoreVerdict(t, synthScorecard(t, ipc), "Fig. 10", row, "G.MEANS(CI)", "ordering"); got != "diverges" {
		t.Errorf("GP and SB swapped: %s, want diverges", got)
	}
}

// TestScorecardAssertedRowsHaveATest: every asserted row names a claim
// that a TestHeadline* test walks, and every such claim keeps its rows.
func TestScorecardAssertedRowsHaveATest(t *testing.T) {
	n := map[string]int{}
	for _, c := range paperClaims {
		if c.headline == "" {
			continue
		}
		if _, ok := headlineRows[c.headline]; !ok {
			t.Errorf("%s row asserted under %q, which no TestHeadline test walks", c.fig, c.headline)
		}
		n[c.headline]++
	}
	for claim, want := range headlineRows {
		if n[claim] < want {
			t.Errorf("%d rows asserted under %s, want at least %d", n[claim], claim, want)
		}
	}
}

// TestScorecardNeedsCompleteSuites: a FAILED point or an -apps subset
// leaves the scorecard out of what paperfigs prints, as it leaves out
// the speedup summaries of a partial suite.
func TestScorecardNeedsCompleteSuites(t *testing.T) {
	const title = "== scorecard"
	render := func(apps []string, fail bool) (string, error) {
		var b strings.Builder
		err := WritePaperFigs(&b, "fig10,scorecard", false, apps, func(apps []Workload, schemes []Scheme) (*SuiteResult, error) {
			res := synthSuite(schemes, map[string]float64{"DLP": 1.15})
			if len(apps) < len(res.Apps) {
				res.Apps = apps
			}
			if fail {
				res.Stats["BT"][schemes[1].Name] = nil
				return res, errors.New("one point failed")
			}
			return res, nil
		})
		return b.String(), err
	}
	out, err := render(nil, false)
	if err != nil || !strings.Contains(out, title) {
		t.Fatalf("complete suites: err=%v, scorecard printed=%v", err, strings.Contains(out, title))
	}
	if out, err := render(nil, true); err == nil || strings.Contains(out, title) || !strings.Contains(out, "FAILED") {
		t.Errorf("a FAILED point: err=%v, scorecard printed=%v", err, strings.Contains(out, title))
	}
	if out, err := render([]string{"BP", "CFD"}, false); err != nil || strings.Contains(out, title) {
		t.Errorf("an -apps subset: err=%v, scorecard printed=%v", err, strings.Contains(out, title))
	}
	res := synthSuite(PaperSchemes(), nil)
	res.Stats["KM"]["DLP"] = nil
	if sc, err := newScorecard(res, synthSuite(AssocSchemes(), nil)); sc != nil || err != nil {
		t.Errorf("a nil point: %v, err=%v, want left out", sc, err)
	}
}

func TestScorecardTextAndCSVCarryTheSameRows(t *testing.T) {
	sc := synthScorecard(t, map[string]float64{"DLP": 1.15})
	var text, csvOut strings.Builder
	if err := sc.Render(&text); err != nil {
		t.Fatal(err)
	}
	if err := sc.RenderCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(csvOut.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")[1:] // drop the title
	if len(lines) != len(records) || len(records) != len(paperClaims)+1 {
		t.Fatalf("%d text lines, %d csv records, %d claims (+1 header)", len(lines), len(records), len(paperClaims))
	}
	cols := regexp.MustCompile(`\s{2,}`)
	for i, line := range lines {
		if got := cols.Split(strings.TrimSpace(line), -1); !reflect.DeepEqual(got, records[i]) {
			t.Errorf("row %d:\n  text %q\n  csv  %q", i, got, records[i])
		}
	}
}

// TestExperimentsQuoteTheScorecard keeps EXPERIMENTS.md in step with the
// committed scorecard: every markdown table row there that starts with a
// figure of the scorecard must be a row of the scorecard block of
// paperfigs_output.txt, cell for cell, and every scorecard row must be
// quoted.
func TestExperimentsQuoteTheScorecard(t *testing.T) {
	out, err := os.ReadFile("paperfigs_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(out), "== scorecard")
	if !ok {
		t.Fatal("paperfigs_output.txt has no scorecard")
	}
	block, _, _ = strings.Cut(block, "\n\n")
	cols := regexp.MustCompile(`\s{2,}`)
	printed := map[string]bool{}
	for _, line := range strings.Split(block, "\n")[2:] { // title, header
		printed["| "+strings.Join(cols.Split(strings.TrimSpace(line), -1), " | ")+" |"] = true
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| Fig. ") && !strings.HasPrefix(line, "| §4.3 ") {
			continue
		}
		quoted[line] = true
		if !printed[line] {
			t.Errorf("EXPERIMENTS.md quotes a row the committed scorecard does not print:\n  %s", line)
		}
	}
	for row := range printed {
		if !quoted[row] {
			t.Errorf("EXPERIMENTS.md does not quote the scorecard row:\n  %s", row)
		}
	}
}
