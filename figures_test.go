package dlpsim

import (
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workloads"
)

// fakeSuite builds a SuiteResult with synthetic counters so the figure
// builders can be tested without running simulations.
func fakeSuite() *SuiteResult {
	schemes := []Scheme{
		{"16KB(Baseline)", Baseline, BaselineConfig()},
		{"DLP", DLP, BaselineConfig()},
	}
	res := &SuiteResult{
		Apps:    workloads.All(),
		Schemes: schemes,
		Stats:   map[string]map[string]*Stats{},
	}
	for i, app := range res.Apps {
		base := &stats.Stats{
			Cycles: 1000, Instructions: uint64(1000 * (i + 1)),
			L1DTraffic: 100, L1DEvictions: 50, L1DHits: 20,
			L1DMisses: 80, L1DAccesses: 100, ICNTFlits: 500,
		}
		dlp := &stats.Stats{
			Cycles: 800, Instructions: uint64(1000 * (i + 1)),
			L1DTraffic: 60, L1DEvictions: 10, L1DHits: 40,
			L1DMisses: 20, L1DAccesses: 100, L1DBypasses: 40, ICNTFlits: 450,
		}
		res.Stats[app.Abbr] = map[string]*Stats{
			"16KB(Baseline)": base,
			"DLP":            dlp,
		}
	}
	return res
}

func TestFig10FromSyntheticSuite(t *testing.T) {
	res := fakeSuite()
	tab, err := res.Fig10IPC()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != 2 {
		t.Fatalf("series = %d", len(tab.Series))
	}
	for i := range tab.Apps {
		if tab.Series[0].Values[i] != 1 {
			t.Errorf("baseline not normalized to 1 at %s", tab.Apps[i])
		}
		if got := tab.Series[1].Values[i]; got != 1.25 {
			t.Errorf("DLP speedup at %s = %v, want 1.25", tab.Apps[i], got)
		}
	}
}

func TestTrafficAndEvictionTables(t *testing.T) {
	res := fakeSuite()
	traffic, err := res.Fig11aTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if got := traffic.Series[1].Values[0]; got != 0.6 {
		t.Errorf("DLP traffic = %v, want 0.6", got)
	}
	ev, err := res.Fig11bEvictions()
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Series[1].Values[0]; got != 0.2 {
		t.Errorf("DLP evictions = %v, want 0.2", got)
	}
}

func TestHitRateTableIsAbsolute(t *testing.T) {
	res := fakeSuite()
	hr, err := res.Fig12aHitRate()
	if err != nil {
		t.Fatal(err)
	}
	if got := hr.Series[0].Values[0]; got != 0.2 {
		t.Errorf("baseline hit rate = %v, want 0.2 (absolute, not normalized)", got)
	}
	hits, err := res.Fig12bHits()
	if err != nil {
		t.Fatal(err)
	}
	if got := hits.Series[1].Values[0]; got != 2 {
		t.Errorf("DLP hits = %v, want 2x", got)
	}
}

func TestICNTTable(t *testing.T) {
	res := fakeSuite()
	icnt, err := res.Fig13ICNT()
	if err != nil {
		t.Fatal(err)
	}
	if got := icnt.Series[1].Values[0]; got != 0.9 {
		t.Errorf("DLP ICNT = %v, want 0.9", got)
	}
}

func TestSpeedupsFromSyntheticSuite(t *testing.T) {
	res := fakeSuite()
	sp, err := res.Speedups()
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"CS", "CI"} {
		if got := sp["DLP"][class]; got != 1.25 {
			t.Errorf("DLP %s geomean = %v, want 1.25", class, got)
		}
		if got := sp["16KB(Baseline)"][class]; got != 1 {
			t.Errorf("baseline %s geomean = %v, want 1", class, got)
		}
	}
}

func TestPaperSchemesShape(t *testing.T) {
	ps := PaperSchemes()
	if len(ps) != 5 {
		t.Fatalf("PaperSchemes = %d entries", len(ps))
	}
	if ps[0].Name != "16KB(Baseline)" || ps[4].Name != "32KB" {
		t.Errorf("scheme order wrong: %v", ps)
	}
	as := AssocSchemes()
	if len(as) != 3 || as[2].Config.L1D.SizeBytes() != 64<<10 {
		t.Errorf("AssocSchemes wrong: %v", as)
	}
}

func TestTableRenderIncludesGMeans(t *testing.T) {
	res := fakeSuite()
	tab, err := res.Fig10IPC()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "G.MEANS(CS)") || !strings.Contains(out, "G.MEANS(CI)") {
		t.Errorf("rendered table missing G.MEANS columns:\n%s", out)
	}
}
