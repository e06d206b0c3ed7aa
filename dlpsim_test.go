package dlpsim

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestConfigForL1D(t *testing.T) {
	for _, kb := range []int{16, 32, 64} {
		cfg, err := ConfigForL1D(kb)
		if err != nil {
			t.Fatalf("ConfigForL1D(%d): %v", kb, err)
		}
		if got := cfg.L1D.SizeBytes(); got != kb*1024 {
			t.Errorf("ConfigForL1D(%d) size = %d", kb, got)
		}
	}
	if _, err := ConfigForL1D(8); err == nil {
		t.Error("ConfigForL1D(8) accepted")
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"baseline": Baseline, "base": Baseline,
		"stall-bypass": StallBypass, "SB": StallBypass,
		"global-protection": GlobalProtection, "gp": GlobalProtection,
		"DLP": DLP,
		"ata": ATA, "ata-cache": ATA,
		"ccws-lite": CCWSLite, "CCWS": CCWSLite,
		"reusepredictor": ReusePredictor, "reuse-predictor": ReusePredictor, "pred": ReusePredictor,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("lru"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}

func TestPoliciesOrder(t *testing.T) {
	ps := Policies()
	want := []Policy{Baseline, StallBypass, GlobalProtection, DLP, ATA, CCWSLite, ReusePredictor}
	if len(ps) != len(want) {
		t.Fatalf("Policies() = %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("Policies()[%d] = %v, want %v", i, ps[i], want[i])
		}
	}
	if got := PaperPolicies(); len(got) != 4 || got[0] != Baseline || got[3] != DLP {
		t.Errorf("PaperPolicies() = %v, want the paper's four in plotting order", got)
	}
	for _, p := range ps {
		if PolicyCitation(p) == "" {
			t.Errorf("policy %s has no provenance citation", p)
		}
	}
}

func TestHardwareOverheadHeadline(t *testing.T) {
	o := HardwareOverhead(BaselineConfig())
	if o.TotalBytes != 1264 || math.Abs(o.Percent-7.48) > 0.01 {
		t.Errorf("overhead = %d bytes (%.2f%%), paper says 1264 bytes (7.48%%)",
			o.TotalBytes, o.Percent)
	}
	rep := OverheadReport(BaselineConfig())
	for _, want := range []string{"1264", "7.48%", "624", "464", "176"} {
		if !strings.Contains(rep, want) {
			t.Errorf("OverheadReport missing %q:\n%s", want, rep)
		}
	}
}

func TestWorkloadsLookup(t *testing.T) {
	if got := len(Workloads()); got != 18 {
		t.Fatalf("Workloads() = %d apps", got)
	}
	w, err := WorkloadByAbbr("bfs") // case-insensitive
	if err != nil || w.Abbr != "BFS" {
		t.Errorf("WorkloadByAbbr(bfs) = %+v, %v", w, err)
	}
	if _, err := WorkloadByAbbr("XX"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunAppEndToEnd(t *testing.T) {
	st, err := RunApp("HS", Baseline, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() <= 0 || st.L1DAccesses == 0 {
		t.Errorf("degenerate run: %+v", st)
	}
	if err := st.CheckConservation(); err != nil {
		t.Error(err)
	}
	if _, err := RunApp("HS", Baseline, 17); err == nil {
		t.Error("invalid cache size accepted")
	}
	if _, err := RunApp("nope", Baseline, 16); err == nil {
		t.Error("invalid app accepted")
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2()
	for _, want := range []string{"Histogram", "String Match", "Rodinia", "Mars", "Polybench", "CUDA Samples"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

func TestFig3Builder(t *testing.T) {
	d := Fig3RDD()
	if len(d.Rows) != 18 {
		t.Fatalf("Fig3 has %d rows", len(d.Rows))
	}
	var b strings.Builder
	if err := d.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "BFS") {
		t.Error("Fig3 render missing BFS")
	}
}

func TestFig6Builder(t *testing.T) {
	tab, err := Fig6Ratios()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Apps) != 18 || tab.Apps[0] != "HG" || tab.Apps[17] != "STR" {
		t.Errorf("Fig6 ordering wrong: %v", tab.Apps)
	}
	ratios := tab.Series[0].Values
	ci := tab.Series[1].Values
	for i := range ratios {
		if (ratios[i] > 1.0) != (ci[i] == 1) {
			t.Errorf("Fig6: %s ratio %.3f%% inconsistent with CI flag %v",
				tab.Apps[i], ratios[i], ci[i])
		}
	}
}

func TestFig7Builder(t *testing.T) {
	d := Fig7BFS()
	if len(d.Rows) < 5 {
		t.Fatalf("Fig7 has %d instruction rows", len(d.Rows))
	}
	for _, r := range d.Rows {
		sum := 0.0
		for _, f := range r.Fractions {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("Fig7 row %s fractions sum to %v", r.Label, sum)
		}
	}
}

func TestFig4Builder(t *testing.T) {
	if testing.Short() {
		t.Skip("LRU replay over all apps is slow")
	}
	tab, err := Fig4MissRates()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != 3 {
		t.Fatalf("Fig4 has %d series, want 16/32/64KB", len(tab.Series))
	}
	// Monotone non-increasing with cache size, per app.
	for i := range tab.Apps {
		m16 := tab.Series[0].Values[i]
		m32 := tab.Series[1].Values[i]
		m64 := tab.Series[2].Values[i]
		if m32 > m16+1e-9 || m64 > m32+1e-9 {
			t.Errorf("%s: miss rate grew with size: %.3f/%.3f/%.3f", tab.Apps[i], m16, m32, m64)
		}
	}
}

func TestProfileAndMissRateAPI(t *testing.T) {
	cfg := BaselineConfig()
	w, _ := WorkloadByAbbr("SC")
	k := w.Generate()
	prof := ProfileRDD(cfg, k)
	if prof.Accesses == 0 {
		t.Fatal("empty profile")
	}
	fr := prof.GlobalFractions()
	if fr[0] < 0.5 {
		t.Errorf("SC short-RD fraction %.2f, want dominant", fr[0])
	}
	if m := ReuseMissRate(cfg, k); m > 0.15 {
		t.Errorf("SC reuse miss rate %.3f, want small", m)
	}
}

func TestKernelSerializationAPI(t *testing.T) {
	w, _ := WorkloadByAbbr("HS")
	k := w.Generate()
	path := filepath.Join(t.TempDir(), "hs.dlpstrm")
	if err := WriteKernel(path, k); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKernel(path)
	if err != nil {
		t.Fatal(err)
	}
	a := k.Summarize(128)
	b := got.Summarize(128)
	if *a != *b {
		t.Errorf("serialized kernel summary differs: %+v vs %+v", a, b)
	}
	// A replayed trace must simulate identically to the generated one.
	s1, err := Run(BaselineConfig(), DLP, k)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Run(BaselineConfig(), DLP, got)
	if err != nil {
		t.Fatal(err)
	}
	if *s1 != *s2 {
		t.Error("trace replay diverged from generated kernel")
	}
}
