package conform

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// tinySpec is a fast case exercising the full variant matrix: the
// reference plus a fast-forward-off and a streamed variant.
func tinySpec() *Spec {
	return &Spec{
		Schema:      SpecSchema,
		Description: "test case",
		Policy:      "dlp",
		Config:      config.Baseline(),
		Workload: WorkloadRef{Synth: &workloads.SynthSpec{
			Seed: 7, Blocks: 1, WarpsPerBlock: 2, MemInsnsPerWarp: 32,
			FootprintLines: 32, StreamPct: 1, HotPct: 1,
		}},
		MaxCycles:      2_000_000,
		FastForwardOff: true,
		Streamed:       true,
	}
}

// writeTestCase materializes a case dir and records its expectation
// via -update semantics.
func writeTestCase(t *testing.T, root, name string, sp *Spec) *Case {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := WriteCase(dir, sp, nil); err != nil {
		t.Fatal(err)
	}
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(context.Background(), RunConfig{Runner: NewRunner(1, time.Minute), Update: true})
	if res.Outcome != Updated {
		t.Fatalf("update run: outcome %s, err %v, variant %q", res.Outcome, res.Err, res.Variant)
	}
	return c
}

func TestCaseRoundTrip(t *testing.T) {
	root := t.TempDir()
	c := writeTestCase(t, root, "tiny", tinySpec())

	res := c.Run(context.Background(), RunConfig{Runner: NewRunner(1, time.Minute)})
	if res.Outcome != Pass {
		t.Fatalf("fresh expectation did not pass: %s (err %v, variant %q)\n%s",
			res.Outcome, res.Err, res.Variant, res.Diff)
	}
	if res.Cycles == 0 {
		t.Error("reference run reported zero cycles")
	}
}

func TestSparseOverlayKeepsBaseline(t *testing.T) {
	// A spec that only overrides the policy must inherit every baseline
	// config field.
	sp, err := UnmarshalSpec([]byte(`{
		"schema": 1,
		"policy": "ata",
		"workload": {"app": "HS"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, pol, kernel, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := config.Baseline()
	if cfg.L1D.Ways != base.L1D.Ways || cfg.NumSMs != base.NumSMs {
		t.Errorf("sparse overlay lost baseline fields: got %+v", cfg.L1D)
	}
	if string(pol) != string(config.PolicyATA) {
		t.Errorf("policy = %q", pol)
	}
	if kernel == nil {
		t.Error("no kernel resolved for app workload")
	}
}

func TestUnmarshalSpecRejectsUnknownFields(t *testing.T) {
	_, err := UnmarshalSpec([]byte(`{"schema": 1, "policy": "dlp", "wrokload": {}}`))
	if err == nil {
		t.Fatal("typo'd field accepted")
	}
	// The cores list is gone from the format; a body that still carries
	// one is refused, not silently run.
	_, err = UnmarshalSpec([]byte(`{"schema": 1, "policy": "dlp", "workload": {"app": "HS"}, "cores": [1, 2]}`))
	if err == nil {
		t.Fatal("spec with a cores list accepted")
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	cases := map[string]func(*Spec){
		"bad-schema":     func(sp *Spec) { sp.Schema = 99 },
		"bad-policy":     func(sp *Spec) { sp.Policy = "nonesuch" },
		"both-workloads": func(sp *Spec) { sp.Workload.App = "HS" },
		"no-workload":    func(sp *Spec) { sp.Workload = WorkloadRef{} },
		"bad-app":        func(sp *Spec) { sp.Workload = WorkloadRef{App: "NOPE"} },
		"bad-geometry":   func(sp *Spec) { sp.Config.L1D.Ways = 0 },
		"bad-synth":      func(sp *Spec) { sp.Workload.Synth.Blocks = 0 },
	}
	for name, mutate := range cases {
		sp := tinySpec()
		mutate(sp)
		if _, _, _, err := sp.Build(); err == nil {
			t.Errorf("%s: Build accepted a bad spec", name)
		}
	}
	// Geometry rejection must be the typed config error, so the fuzzer
	// can classify it as input-rejected rather than engine-failed.
	sp := tinySpec()
	sp.Config.L1D.Sets = 0
	_, _, _, err := sp.Build()
	var cerr *config.Error
	if !errors.As(err, &cerr) {
		t.Errorf("degenerate geometry error %v is not a *config.Error", err)
	}
}

// TestPerturbedExpectationIsDrift is the acceptance check: flipping one
// digit in a committed expected_stats.json must register as drift with
// a unified diff, because the file is still well-formed — only wrong.
func TestPerturbedExpectationIsDrift(t *testing.T) {
	root := t.TempDir()
	c := writeTestCase(t, root, "perturb", tinySpec())

	if err := faultinject.CorruptFileDigit(filepath.Join(c.Dir, ExpectedFile)); err != nil {
		t.Fatal(err)
	}
	res := c.Run(context.Background(), RunConfig{Runner: NewRunner(1, time.Minute)})
	if res.Outcome != Drift {
		t.Fatalf("outcome %s, want Drift (err %v)", res.Outcome, res.Err)
	}
	if !strings.Contains(res.Diff, "@@") || !strings.Contains(res.Diff, "-") {
		t.Errorf("drift carried no unified diff:\n%s", res.Diff)
	}
	if !res.Outcome.Failed() {
		t.Error("Drift not classified as failure")
	}
}

// TestDamagedExpectationIsCorruptNotDrift: an unparseable or
// non-canonical expectation file must surface as the distinct
// CorruptExpected outcome, never as engine drift.
func TestDamagedExpectationIsCorruptNotDrift(t *testing.T) {
	damage := map[string]func(path string) error{
		"truncated": faultinject.TruncateFile,
		"garbled":   faultinject.GarbleFile,
		"missing":   os.Remove,
		"unknown-counter": func(path string) error {
			return os.WriteFile(path, []byte("{\n  \"NotACounter\": 1\n}\n"), 0o644)
		},
		"non-canonical": func(path string) error {
			// Valid JSON, valid counters, wrong formatting.
			return os.WriteFile(path, []byte(`{"Cycles": 12}`), 0o644)
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			c := writeTestCase(t, root, "damage", tinySpec())
			if err := hurt(filepath.Join(c.Dir, ExpectedFile)); err != nil {
				t.Fatal(err)
			}
			res := c.Run(context.Background(), RunConfig{Runner: NewRunner(1, time.Minute)})
			if res.Outcome != CorruptExpected {
				t.Fatalf("outcome %s, want CorruptExpected (err %v)", res.Outcome, res.Err)
			}
			var ce *CorruptExpectedError
			if !errors.As(res.Err, &ce) {
				t.Errorf("error %v is not a *CorruptExpectedError", res.Err)
			}
		})
	}
}

func TestDiscoverGlobAndOrder(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"b-two", "a-one", "c-three"} {
		writeTestCase(t, root, name, tinySpec())
	}
	// A stray non-case directory and file must be skipped.
	if err := os.MkdirAll(filepath.Join(root, "not-a-case"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	all, err := Discover(root, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].Name != "a-one" || all[2].Name != "c-three" {
		t.Fatalf("discover order wrong: %+v", names(all))
	}
	some, err := Discover(root, "[ab]-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 {
		t.Fatalf("glob matched %v", names(some))
	}
	if _, err := Discover(root, "["); err == nil {
		t.Error("bad glob accepted")
	}
}

func names(cs []*Case) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

func TestNormalizeIsCanonicalAndExact(t *testing.T) {
	st := &stats.Stats{Cycles: 1 << 62, Instructions: 3} // above 2^53: float64 would round
	b, err := Normalize(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "4611686018427387904") {
		t.Errorf("large counter lost precision:\n%s", b)
	}
	again, err := normalizeRaw(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(b) {
		t.Error("Normalize is not a fixpoint of itself")
	}
	if b[len(b)-1] != '\n' {
		t.Error("normalized form lacks trailing newline")
	}
}

func TestUnifiedDiff(t *testing.T) {
	a := []byte("one\ntwo\nthree\nfour\nfive\nsix\nseven\neight\nnine\nten\n")
	b := []byte("one\ntwo\nthree\nfour\nFIVE\nsix\nseven\neight\nnine\nten\n")
	d := UnifiedDiff("a", "b", a, b)
	for _, want := range []string{"--- a", "+++ b", "-five", "+FIVE", "@@"} {
		if !strings.Contains(d, want) {
			t.Errorf("diff missing %q:\n%s", want, d)
		}
	}
	if strings.Contains(d, " one\n") || strings.Contains(d, " ten\n") {
		t.Errorf("diff includes lines outside the context window:\n%s", d)
	}
	if got := UnifiedDiff("a", "b", a, a); strings.Contains(got, "@@") {
		t.Errorf("identical inputs produced a hunk:\n%s", got)
	}
}

func TestVariantsMatrix(t *testing.T) {
	sp := tinySpec()
	vs := sp.Variants()
	if len(vs) != 3 {
		t.Fatalf("variants = %+v", vs)
	}
	want := []Variant{{Name: "reference"}, {Name: "ff=off", DisableFastForward: true}, {Name: "streamed", Streamed: true}}
	for i := range want {
		if vs[i] != want[i] {
			t.Errorf("variant %d = %+v, want %+v", i, vs[i], want[i])
		}
	}
	sp.FastForwardOff, sp.Streamed = false, false
	vs = sp.Variants()
	if len(vs) != 1 || vs[0] != want[0] {
		t.Errorf("default variants wrong: %+v", vs)
	}
}
