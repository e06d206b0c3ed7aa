package dlpsim

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
)

// sweepNamed returns the registered sweep called name.
func sweepNamed(t *testing.T, name string) Sweep {
	t.Helper()
	for _, sw := range Sweeps() {
		if sw.Name == name {
			return sw
		}
	}
	t.Fatalf("no sweep %q", name)
	return Sweep{}
}

// handSuite is a WritePaperFigs run function that simulates nothing: it
// records each call's applications and schemes and gives every point the
// IPC ipc(app, scheme) returns, where a value <= 0 is a failed point
// (nil Stats).
func handSuite(calls *[]string, ipc func(app, scheme string) float64) func([]Workload, []Scheme) (*SuiteResult, error) {
	return func(apps []Workload, schemes []Scheme) (*SuiteResult, error) {
		res := &SuiteResult{Apps: apps, Schemes: schemes, Stats: map[string]map[string]*Stats{}}
		var names []string
		for _, app := range apps {
			names = append(names, app.Abbr)
			res.Stats[app.Abbr] = map[string]*Stats{}
			for _, sc := range schemes {
				if v := ipc(app.Abbr, sc.Name); v > 0 {
					res.Stats[app.Abbr][sc.Name] = &Stats{Cycles: 1000, Instructions: uint64(1000 * v)}
				}
			}
		}
		*calls = append(*calls, strings.Join(names, ",")+" under "+schemes[len(schemes)-1].Name)
		return res, nil
	}
}

// ablationHeaders returns the names of the ablation tables in out.
func ablationHeaders(out string) []string {
	var names []string
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "== ablation: "); ok {
			names = append(names, strings.TrimSuffix(name, " =="))
		}
	}
	return names
}

func TestAblationPDBits(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep skipped in -short mode")
	}
	cfd, err := WorkloadByAbbr("CFD")
	if err != nil {
		t.Fatal(err)
	}
	sw := sweepNamed(t, "pd-bits")
	res, err := RunSuite(context.Background(), nil, []Workload{cfd}, sw.Schemes())
	if err != nil {
		t.Fatal(err)
	}
	ab := sw.Ablation(res)
	if len(ab.Points) != 5 {
		t.Fatalf("swept %d points", len(ab.Points))
	}
	// The paper's 4-bit choice must clearly beat a 2-bit field on the
	// protection showcase app.
	by := map[int]float64{}
	for _, pt := range ab.Points {
		by[pt.Value] = pt.GeoMean
	}
	if by[4] <= by[2] {
		t.Errorf("4-bit PD (%.3f) not better than 2-bit (%.3f)", by[4], by[2])
	}
	if by[4] < 1.05 {
		t.Errorf("4-bit PD speedup %.3f, want a clear gain on CFD", by[4])
	}
	out := ab.Render()
	for _, want := range []string{"pd-bits", "CFD", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestAblationRejectsUnknownApp: an application name WritePaperFigs
// cannot resolve is an error that names it, returned before a sweep
// runs or a byte is written — also when an experiment that prints
// without one (Table 2) precedes the sweep.
func TestAblationRejectsUnknownApp(t *testing.T) {
	var b strings.Builder
	err := WritePaperFigs(&b, "table2,pd-bits", false, []string{"CFD", "NOPE"}, noSuite(t))
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("unknown app: error %v, want one naming NOPE", err)
	}
	if b.Len() != 0 {
		t.Errorf("wrote %d bytes before refusing", b.Len())
	}
}

func TestDefaultAblationApps(t *testing.T) {
	for _, a := range DefaultAblationApps() {
		if _, err := WorkloadByAbbr(a); err != nil {
			t.Errorf("default ablation app %s unknown: %v", a, err)
		}
	}
}

// TestSweepSchemes: a sweep's suite is the unmodified baseline cache,
// then one "<name>=<value>" scheme of the swept policy per value, whose
// config differs from the baseline in one field only — the same field
// at every value.
func TestSweepSchemes(t *testing.T) {
	base := reflect.ValueOf(*config.Baseline())
	for _, sw := range Sweeps() {
		schemes := sw.Schemes()
		if len(schemes) != len(sw.Values)+1 {
			t.Fatalf("%s: %d schemes for %d values", sw.Name, len(schemes), len(sw.Values))
		}
		if want := (Scheme{"Baseline", Baseline, config.Baseline()}); !reflect.DeepEqual(schemes[0], want) {
			t.Errorf("%s: first scheme %+v, want the unmodified baseline", sw.Name, schemes[0])
		}
		swept := map[string]bool{}
		for i, v := range sw.Values {
			sc := schemes[i+1]
			if want := fmt.Sprintf("%s=%d", sw.Name, v); sc.Name != want || sc.Policy != sw.Policy {
				t.Errorf("%s: scheme %d is %s under %s, want %s under %s", sw.Name, i+1, sc.Name, sc.Policy, want, sw.Policy)
			}
			cfg := reflect.ValueOf(*sc.Config)
			for f := 0; f < cfg.NumField(); f++ {
				if !reflect.DeepEqual(cfg.Field(f).Interface(), base.Field(f).Interface()) {
					swept[cfg.Type().Field(f).Name] = true
				}
			}
		}
		if len(swept) != 1 {
			t.Errorf("%s: configs differ from the baseline in %v, want one field", sw.Name, swept)
		}
	}
}

// TestSweepFailedPointRendersFailed: a point without Stats — a failed
// job of a keep-going run, at the swept scheme or at the baseline —
// renders FAILED and is left out of its row's geomean; a row with no
// point left has a FAILED geomean.
func TestSweepFailedPointRendersFailed(t *testing.T) {
	ipc := func(app, scheme string) float64 {
		switch {
		case scheme == "pd-bits=2" && app == "CFD":
			return 2
		case scheme == "pd-bits=2" && app == "BP", scheme == "pd-bits=3",
			scheme == "Baseline" && app == "KM":
			return 0
		}
		return 1
	}
	var calls []string
	var b strings.Builder
	if err := WritePaperFigs(&b, "pd-bits", false, []string{"CFD", "BP", "KM"}, handSuite(&calls, ipc)); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f[1:]
		}
	}
	for value, want := range map[string][]string{
		"value": {"CFD", "BP", "KM", "geomean"},
		"2":     {"2.000", "FAILED", "FAILED", "2.000"},
		"3":     {"FAILED", "FAILED", "FAILED", "FAILED"},
		"4":     {"1.000", "1.000", "FAILED", "1.000"},
	} {
		if !slices.Equal(rows[value], want) {
			t.Errorf("row %s: %v, want %v\n%s", value, rows[value], want, b.String())
		}
	}
}

// TestWritePaperFigsSweeps: "ablations" prints the Paper sweeps, in
// Sweeps order, each a suite on DefaultAblationApps; a sweep's name
// prints that sweep alone, on the applications apps names.
func TestWritePaperFigsSweeps(t *testing.T) {
	var paper []string
	for _, sw := range Sweeps() {
		if sw.Paper {
			paper = append(paper, sw.Name)
		}
	}
	one := func(string, string) float64 { return 1 }
	var calls []string
	var b strings.Builder
	if err := WritePaperFigs(&b, "ablations", false, nil, handSuite(&calls, one)); err != nil {
		t.Fatal(err)
	}
	if got := ablationHeaders(b.String()); !slices.Equal(got, paper) {
		t.Errorf("-exp ablations printed sweeps %v, want %v", got, paper)
	}
	defaults := strings.Join(DefaultAblationApps(), ",")
	for _, c := range calls {
		if !strings.HasPrefix(c, defaults+" under ") {
			t.Errorf("-exp ablations ran %s, want the default apps %s", c, defaults)
		}
	}

	calls = nil
	b.Reset()
	if err := WritePaperFigs(&b, "ata-ways", false, []string{"cfd", "BP"}, handSuite(&calls, one)); err != nil {
		t.Fatal(err)
	}
	if got := ablationHeaders(b.String()); !slices.Equal(got, []string{"ata-ways"}) {
		t.Errorf("-exp ata-ways printed sweeps %v", got)
	}
	if want := []string{"CFD,BP under ata-ways=32"}; !slices.Equal(calls, want) {
		t.Errorf("-exp ata-ways -apps cfd,BP ran %v, want %v", calls, want)
	}
}

// TestExperimentIDs: "all" is the paper's figures with no sweep and no
// cross-policy table, "ablations" is the Paper sweeps, and a sweep id —
// or "ablations" — under csv is refused by WritePaperFigs before a byte
// is written.
func TestExperimentIDs(t *testing.T) {
	ids := func(exps string) []string {
		want, err := experimentIDs(exps, false)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for id := range want {
			out = append(out, id)
		}
		slices.Sort(out)
		return out
	}
	all := slices.Clone(paperFigIDs)
	slices.Sort(all)
	if got := ids("all"); !slices.Equal(got, all) {
		t.Errorf("all = %v, want %v", got, all)
	}
	var paper []string
	for _, sw := range Sweeps() {
		if slices.Contains(ids("all"), sw.Name) {
			t.Errorf("all selects the sweep %s", sw.Name)
		}
		if sw.Paper {
			paper = append(paper, sw.Name)
		}
	}
	slices.Sort(paper)
	if got := ids("ablations"); !slices.Equal(got, paper) {
		t.Errorf("ablations = %v, want %v", got, paper)
	}

	for _, exps := range []string{"pd-bits", "fig10,ablations", "ccws-lifetime"} {
		var b strings.Builder
		err := WritePaperFigs(&b, exps, true, nil, noSuite(t))
		if err == nil || !strings.Contains(err.Error(), "csv") {
			t.Errorf("-exp %s -format csv: error %v, want a csv refusal", exps, err)
		}
		if b.Len() != 0 {
			t.Errorf("-exp %s -format csv: wrote %d bytes before refusing", exps, b.Len())
		}
	}
	var b strings.Builder
	if err := WritePaperFigs(&b, "pd-bitz", false, nil, noSuite(t)); err == nil || b.Len() != 0 {
		t.Errorf("-exp pd-bitz: error %v after %d bytes, want a refusal before any", err, b.Len())
	} else if !strings.Contains(err.Error(), "pred-dead-periods") {
		t.Errorf("-exp pd-bitz: error %q does not list the sweep ids", err)
	}
}
