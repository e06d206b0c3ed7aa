package dlpsim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// The golden identity tests pin the simulator's results bit-for-bit.
// testdata/golden_paper_suite.json was recorded from the pre-optimization
// engine (the PR 2 seed); every performance change since — activity
// skipping, fast-forward, request pooling — must leave the full paper
// suite byte-identical to that recording, at any worker count and with
// or without the sampled self-checks. Regenerate deliberately with
//
//	GOLDEN_UPDATE=1 go test -run TestGoldenSuiteIdentity -timeout 30m .
//
// after a change that is *supposed* to alter results (and say why in the
// commit); a perf-only PR must never need to.

const goldenPath = "testdata/golden_paper_suite.json"

// goldenSuite is the canonical serialization: applications in registry
// order, schemes in plotting order, the full integer counter set per
// cell. Stats is all-integer, so JSON round-trips are exact.
type goldenSuite struct {
	Apps    []string            `json:"apps"`
	Schemes []string            `json:"schemes"`
	Stats   []map[string]*Stats `json:"stats"` // Stats[i][scheme] for Apps[i]
}

func goldenFromSuite(res *SuiteResult) *goldenSuite {
	g := &goldenSuite{}
	for _, sc := range res.Schemes {
		g.Schemes = append(g.Schemes, sc.Name)
	}
	for _, app := range res.Apps {
		g.Apps = append(g.Apps, app.Abbr)
		cell := make(map[string]*Stats, len(res.Schemes))
		for _, sc := range res.Schemes {
			cell[sc.Name] = res.Stats[app.Abbr][sc.Name]
		}
		g.Stats = append(g.Stats, cell)
	}
	return g
}

func goldenBytes(t *testing.T, res *SuiteResult) []byte {
	t.Helper()
	b, err := json.MarshalIndent(goldenFromSuite(res), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with GOLDEN_UPDATE=1): %v", err)
	}
	return want
}

// compareGolden diffs cell-by-cell before failing so a mismatch names
// the first diverging (app, scheme, counter) instead of dumping two
// multi-thousand-line JSON blobs.
func compareGolden(t *testing.T, label string, got []byte) {
	t.Helper()
	want := readGolden(t)
	if string(got) == string(want) {
		return
	}
	var g, w goldenSuite
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	for i, app := range w.Apps {
		if i >= len(g.Apps) {
			break
		}
		for _, sc := range w.Schemes {
			gs, ws := g.Stats[i][sc], w.Stats[i][sc]
			if gs == nil || ws == nil {
				if gs != ws {
					t.Errorf("%s: %s/%s: one side missing", label, app, sc)
				}
				continue
			}
			if *gs != *ws {
				t.Errorf("%s: %s/%s diverged:\n got: %+v\nwant: %+v", label, app, sc, *gs, *ws)
			}
		}
	}
	t.Fatalf("%s: suite output is not byte-identical to %s", label, goldenPath)
}

// TestGoldenSuiteIdentity runs the full paper suite serially (-j 1) and
// demands byte-identity with the seed recording. With GOLDEN_UPDATE=1 it
// rewrites the golden file instead; the logged wall time of that serial
// run is the perf baseline tracked in EXPERIMENTS.md.
func TestGoldenSuiteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite skipped in -short mode")
	}
	start := time.Now()
	res, err := RunSuite(context.Background(), PaperSchemes(), &SuiteOptions{Runner: &Runner{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RunSuite(PaperSchemes()) at -j 1: %.1fs", time.Since(start).Seconds())
	got := goldenBytes(t, res)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	compareGolden(t, "-j 1", got)
}

// TestGoldenSuiteIdentityParallelSelfCheck re-runs the full suite on an
// 8-worker pool with the sampled invariant sweeps enabled — the
// maximally different execution (parallel scheduling + self-checks +
// activity-accounting cross-checks) must still reproduce the seed bytes.
func TestGoldenSuiteIdentityParallelSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite skipped in -short mode")
	}
	res, err := RunSuite(context.Background(), PaperSchemes(),
		&SuiteOptions{Runner: &Runner{Workers: 8, SelfCheck: true}})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "-j 8 selfcheck", goldenBytes(t, res))
}

// withGOMAXPROCS temporarily raises GOMAXPROCS to at least n so the
// runner's Workers × Cores ≤ GOMAXPROCS cap doesn't collapse the
// requested phase parallelism back to serial on small CI boxes. Safe
// anywhere: when the host has fewer CPUs than a pool has shards, the
// phase workers park on channels instead of spinning, so raising the
// limit never livelocks a single-CPU machine.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// TestGoldenSuiteIdentityCores2 re-runs the full suite with two-way
// phase parallelism inside every simulation and the sampled invariant
// sweeps on. This is the tentpole's contract: the phase-parallel engine
// reproduces the seed recording bit-for-bit at any core count.
func TestGoldenSuiteIdentityCores2(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite skipped in -short mode")
	}
	withGOMAXPROCS(t, 2)
	res, err := RunSuite(context.Background(), PaperSchemes(),
		&SuiteOptions{Runner: &Runner{Workers: 1, Cores: 2, SelfCheck: true}})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "-j 1 -cores 2 selfcheck", goldenBytes(t, res))
}

// TestGoldenSuiteIdentityCores8 checks eight-way phase parallelism —
// with a parallel worker pool around it — against the same recording on
// an application subset (the full grid at cores=8 on a small box would
// blow the package's test budget; the cores=2 test above already covers
// every cell). Cells are compared value-by-value against the golden
// file rather than byte-by-byte, since a subset serializes differently.
func TestGoldenSuiteIdentityCores8(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite skipped in -short mode")
	}
	withGOMAXPROCS(t, 16)
	var apps []Workload
	for _, abbr := range []string{"BP", "BFS", "HS"} {
		w, err := WorkloadByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, w)
	}
	res, err := RunSuite(context.Background(), PaperSchemes(),
		&SuiteOptions{Runner: &Runner{Workers: 2, Cores: 8, SelfCheck: true}, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}

	var w goldenSuite
	if err := json.Unmarshal(readGolden(t), &w); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	cells := make(map[string]map[string]*Stats, len(w.Apps))
	for i, app := range w.Apps {
		cells[app] = w.Stats[i]
	}
	for _, app := range apps {
		for _, sc := range res.Schemes {
			got := res.Stats[app.Abbr][sc.Name]
			want := cells[app.Abbr][sc.Name]
			if got == nil || want == nil {
				t.Fatalf("%s/%s: missing cell (got=%v want=%v)", app.Abbr, sc.Name, got, want)
			}
			if *got != *want {
				t.Errorf("-j 2 -cores 8: %s/%s diverged:\n got: %+v\nwant: %+v",
					app.Abbr, sc.Name, *got, *want)
			}
		}
	}
}

// TestGoldenSuiteIdentityOddCores checks the work-stealing schedule at
// core counts that never divide the component count evenly — the span
// layouts where a striding bug would first show. Same subset-and-cell
// comparison as the cores=8 test; cores=2 above still covers the full
// grid.
func TestGoldenSuiteIdentityOddCores(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite skipped in -short mode")
	}
	withGOMAXPROCS(t, 8)
	var apps []Workload
	for _, abbr := range []string{"BP", "HS"} {
		w, err := WorkloadByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, w)
	}

	var w goldenSuite
	if err := json.Unmarshal(readGolden(t), &w); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	cells := make(map[string]map[string]*Stats, len(w.Apps))
	for i, app := range w.Apps {
		cells[app] = w.Stats[i]
	}

	for _, cores := range []int{3, 5, 7} {
		res, err := RunSuite(context.Background(), PaperSchemes(),
			&SuiteOptions{Runner: &Runner{Workers: 1, Cores: cores, SelfCheck: true}, Apps: apps})
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		for _, app := range apps {
			for _, sc := range res.Schemes {
				got := res.Stats[app.Abbr][sc.Name]
				want := cells[app.Abbr][sc.Name]
				if got == nil || want == nil {
					t.Fatalf("cores=%d: %s/%s: missing cell (got=%v want=%v)", cores, app.Abbr, sc.Name, got, want)
				}
				if *got != *want {
					t.Errorf("-cores %d: %s/%s diverged:\n got: %+v\nwant: %+v",
						cores, app.Abbr, sc.Name, *got, *want)
				}
			}
		}
	}
}

// TestGoldenSharedSuiteMatches cross-checks the suite the headline tests
// share (run at default workers, no self-check) against the same golden
// bytes, so every headline assertion is known to have executed on
// seed-identical numbers.
func TestGoldenSharedSuiteMatches(t *testing.T) {
	res := paperSuite(t)
	compareGolden(t, "shared suite", goldenBytes(t, res))
}
