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
// kernels it replays and drops them, so once Figs. 3, 4, 6 and 7 have
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
	runtime.GC()
	runtime.ReadMemStats(&after)
	const limit = 256 << 20
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > limit {
		t.Errorf("live heap grew by %d MB across the analysis figures, limit %d MB", grown>>20, limit>>20)
	}
}
