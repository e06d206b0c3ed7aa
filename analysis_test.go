package dlpsim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/rdd"
)

// noSuite is the WritePaperFigs run function of tests that ask for no
// simulation figure.
func noSuite(t *testing.T) func([]Workload, []Scheme) (*SuiteResult, error) {
	return func(_ []Workload, schemes []Scheme) (*SuiteResult, error) {
		t.Errorf("unexpected suite run for %v", schemes)
		return nil, errors.New("no suite in this test")
	}
}

// TestFig7IsTheProfileOfEachApp checks that Fig. 7 for any application
// is that application's per-PC profile: the same instructions, in PC
// order, with the same bucket fractions — and that WritePaperFigs
// renders one table for each application it is given.
func TestFig7IsTheProfileOfEachApp(t *testing.T) {
	cfg := config.Baseline()
	for _, abbr := range []string{"CFD", "KM"} {
		spec, err := WorkloadByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		d := Fig7RDD(spec)
		prof := rdd.ProfileKernel(spec.Generate(), cfg.NumSMs, cfg.L1D)
		pcs := prof.PCs()
		if len(d.Rows) != len(pcs) {
			t.Fatalf("%s: Fig. 7 has %d rows, the profile %d PCs", abbr, len(d.Rows), len(pcs))
		}
		for i, pc := range pcs {
			row := d.Rows[i]
			if want := fmt.Sprintf("insn%d", pc); row.Label != want {
				t.Errorf("%s row %d: label %s, want %s", abbr, i, row.Label, want)
			}
			if want := prof.PCFractions(pc); !slices.Equal(row.Fractions, want) {
				t.Errorf("%s insn%d: fractions %v, want %v", abbr, pc, row.Fractions, want)
			}
		}
	}

	var b strings.Builder
	if err := WritePaperFigs(&b, "fig7", false, []string{"CFD"}, noSuite(t)); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "per-instruction RDD of CFD") || strings.Contains(out, "of BFS") {
		t.Errorf("paperfigs -exp fig7 -apps CFD printed:\n%s", out)
	}
}

// TestFig9PinsCFDsProtectionDynamics pins CFD's Fig. 9 table, the
// default of paperfigs -exp fig9: the global TDA/VTA hits each of the
// first 20 sampling periods closed on, the branch taken, and the
// protection distance of each of CFD's three memory instructions. It
// also checks that WritePaperFigs prints one table per -apps entry, in
// text and in CSV, and pins the one sample of HS, whose stores must
// reach the cache as stores, by its closing counters.
func TestFig9PinsCFDsProtectionDynamics(t *testing.T) {
	cfd, err := WorkloadByAbbr("CFD")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fig9PD(cfd)
	if err != nil {
		t.Fatal(err)
	}
	want := []Series{
		{Name: "TDA hits", Values: []float64{17, 8, 2, 31, 97, 48, 76, 42, 11, 0, 4, 83, 81, 46, 41, 0, 1, 34, 78, 58}},
		{Name: "VTA hits", Values: []float64{28, 71, 54, 48, 7, 2, 1, 22, 30, 36, 62, 24, 7, 3, 43, 47, 64, 70, 8, 11}},
		{Name: "branch", Values: []float64{1, 1, 1, 1, -1, -1, -1, 0, 1, 1, 1, -1, -1, -1, 1, 1, 1, 1, -1, -1}},
		{Name: "PD(insn0)", Values: []float64{4, 15, 15, 15, 11, 7, 3, 3, 15, 15, 15, 11, 7, 3, 7, 15, 15, 15, 11, 7}},
		{Name: "PD(insn1)", Values: []float64{0, 15, 15, 15, 11, 7, 3, 3, 7, 15, 15, 11, 7, 3, 5, 15, 15, 15, 11, 7}},
		{Name: "PD(insn2)", Values: make([]float64, 20)},
	}
	if len(tab.Apps) != 20 || tab.Apps[0] != "1" || tab.Apps[19] != "20" {
		t.Errorf("columns %v, want sampling periods 1..20", tab.Apps)
	}
	if len(tab.Series) != len(want) {
		t.Fatalf("%d series, want %d", len(tab.Series), len(want))
	}
	for i, w := range want {
		if got := tab.Series[i]; got.Name != w.Name || !slices.Equal(got.Values, w.Values) {
			t.Errorf("series %d = %s %v, want %s %v", i, got.Name, got.Values, w.Name, w.Values)
		}
	}
	if !strings.Contains(tab.Title, "accesses=4000 hits=759 bypasses=1281 vta_hits=638 hit_rate=0.279") {
		t.Errorf("title %q does not carry the closing counters", tab.Title)
	}

	for _, c := range []struct {
		csv  bool
		want []string
	}{
		{false, []string{"branch     1   1   1   1   -1", "of HS (accesses=384 hits=102 bypasses=0 vta_hits=58 hit_rate=0.266)", "TDA hits   44\n"}},
		{true, []string{"branch,1,1,1,1,-1", "TDA hits,44\n"}},
	} {
		var b strings.Builder
		if err := WritePaperFigs(&b, "fig9", c.csv, []string{"CFD", "hs"}, noSuite(t)); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, w := range c.want {
			if !strings.Contains(out, w) || strings.Count(out, "PD(insn0)") != 2 {
				t.Errorf("paperfigs -exp fig9 -apps CFD,hs (csv=%v) lacks %q:\n%s", c.csv, w, out)
			}
		}
	}
}

// TestWritePaperFigsRefusesUnknownIDs: an id WritePaperFigs does not
// know is an error that names it and the valid ids, returned before a
// single byte is written — also when a known id precedes it.
func TestWritePaperFigsRefusesUnknownIDs(t *testing.T) {
	for _, exps := range []string{"fig11", "table2,fig11", "fig3,"} {
		var b strings.Builder
		err := WritePaperFigs(&b, exps, false, nil, noSuite(t))
		if err == nil {
			t.Errorf("-exp %q: no error", exps)
			continue
		}
		if !strings.Contains(err.Error(), "fig11a") {
			t.Errorf("-exp %q: error %q does not list the valid ids", exps, err)
		}
		if b.Len() != 0 {
			t.Errorf("-exp %q: wrote %d bytes before refusing", exps, b.Len())
		}
	}
}

// TestAnalysisFiguresKeepNoKernels: the workload analysis generates the
// kernels it replays and drops them, so once Figs. 3, 4, 6, 7 and 9 have
// been built the live heap holds none of the 18 kernels (1.6 GB if
// they were kept, as the process-wide SharedKernel memo keeps them).
func TestAnalysisFiguresKeepNoKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every application four times")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	Fig3RDD()
	if _, err := Fig4MissRates(); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig6Ratios(); err != nil {
		t.Fatal(err)
	}
	bfs, _ := WorkloadByAbbr("BFS")
	Fig7RDD(bfs)
	if _, err := Fig9PD(bfs); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const limit = 256 << 20
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > limit {
		t.Errorf("live heap grew by %d MB across the analysis figures, limit %d MB", grown>>20, limit>>20)
	}
}
