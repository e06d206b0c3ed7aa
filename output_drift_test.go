package dlpsim

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The committed paperfigs_output.txt / ablate_output.txt drifted
// silently once before (stale geomean cells after a renderer change).
// These tests re-render both documents from scratch and diff them
// byte-for-byte against the committed files, so neither a renderer nor
// a simulator change can ship without regenerating them (make figures).
// Skipped under -short like every other full-suite test.

var (
	assocOnce sync.Once
	assocRes  *SuiteResult
	assocErr  error
)

// assocSuite runs the Fig. 5 associativity suite once per test binary,
// mirroring paperSuite.
func assocSuite(t testing.TB) *SuiteResult {
	if tt, ok := t.(*testing.T); ok && testing.Short() {
		tt.Skip("full associativity suite skipped in -short mode")
	}
	assocOnce.Do(func() {
		assocRes, assocErr = RunSuite(context.Background(), AssocSchemes(), nil)
	})
	if assocErr != nil {
		t.Fatalf("assoc suite failed: %v", assocErr)
	}
	return assocRes
}

// diffAgainstFile fails with the first differing line, which localizes
// a drift far better than a byte-offset mismatch in a 128-line diff.
func diffAgainstFile(t *testing.T, got, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "<missing>", "<missing>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s drifted at line %d:\n  committed: %q\n  rendered:  %q\n"+
				"regenerate with `make figures` if the change is intentional", path, i+1, w, g)
		}
	}
	t.Fatalf("%s drifted (content equal per line but bytes differ — check trailing newlines)", path)
}

// TestPaperfigsOutputCommitted renders what `paperfigs` prints to
// stdout through the command's own sequence (WritePaperFigs), feeding
// it the cached suites, and diffs it against the committed reference.
func TestPaperfigsOutputCommitted(t *testing.T) {
	eval := paperSuite(t)  // Figs. 10-13 + speedups
	assoc := assocSuite(t) // Fig. 5

	var b strings.Builder
	err := WritePaperFigs(&b, "all", false, nil, func(schemes []Scheme) (*SuiteResult, error) {
		switch {
		case reflect.DeepEqual(schemes, PaperSchemes()):
			return eval, nil
		case reflect.DeepEqual(schemes, AssocSchemes()):
			return assoc, nil
		}
		return nil, fmt.Errorf("unexpected scheme set %v", schemes)
	})
	if err != nil {
		t.Fatal(err)
	}
	diffAgainstFile(t, b.String(), "paperfigs_output.txt")
}

// TestAblateOutputCommitted re-renders what `ablate` (all sweeps)
// prints to stdout and diffs it against the committed reference.
func TestAblateOutputCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps skipped in -short mode")
	}
	ctx := context.Background()
	apps := DefaultAblationApps()
	// One runner, one cache — the same sharing the command uses, so the
	// per-app baselines simulate once across all four sweeps.
	r := &Runner{Cache: NewRunCache()}
	var b strings.Builder
	for _, sw := range Sweeps() {
		if !sw.Paper {
			continue
		}
		ab, err := sw.Run(ctx, apps, r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, ab.Render())
	}
	diffAgainstFile(t, b.String(), "ablate_output.txt")
}

// TestAblateRenderParallelSelfCheck re-renders the first committed
// ablation block (the sample-period sweep) on a two-worker pool with the
// sampled self-checks on, and demands the rendered bytes match the
// committed reference: neither the pool nor the invariant sweeps may
// perturb a single printed character.
func TestAblateRenderParallelSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep skipped in -short mode")
	}
	r := &Runner{Workers: 2, SelfCheck: true, Cache: NewRunCache()}
	ab, err := AblateSamplePeriod(context.Background(), DefaultAblationApps(), r)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("ablate_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := strings.Cut(string(raw), "\n\n")
	if !ok {
		t.Fatal("ablate_output.txt has no blank-line block separator")
	}
	if got := strings.TrimSuffix(ab.Render(), "\n"); got != want {
		t.Errorf("-j 2 selfcheck sample-period sweep drifted from committed block:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestInterruptExitCode pins the Ctrl-C contract end to end: a real
// SIGINT delivered to a running dlpsim must exit 130 — distinct from
// both success and the generic failure exit 1 — so scripts can tell an
// interrupted run from a broken one.
func TestInterruptExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "dlpsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dlpsim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// MM at 8x scale simulates for several seconds (plain MM now takes
	// about one), so an interrupt one second in lands mid-run with wide
	// margin on both sides; streamed, it starts without generating.
	cmd := exec.Command(bin, "-app", "MM", "-policy", "baseline", "-stream", "-scale", "8")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1 * time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("dlpsim exited cleanly despite SIGINT (err=%v)", err)
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("interrupted dlpsim exited %d, want 130", code)
	}
}
