package dlpsim

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/faultinject"
	"repro/internal/workloads"
)

// TestConformCLI pins the conformance tool's end-to-end contract
// through a real subprocess: a fresh corpus passes with exit 0, a
// single flipped digit in a committed expectation exits 1 and prints a
// unified diff, and a truncated expectation exits 1 with the distinct
// corrupt-file report instead of a diff.
func TestConformCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := buildMain(t, "./cmd/conform")

	root := t.TempDir()
	sp := &conform.Spec{
		Schema: conform.SpecSchema,
		Policy: "dlp",
		Config: config.Baseline(),
		Workload: conform.WorkloadRef{Synth: &workloads.SynthSpec{
			Seed: 11, Blocks: 1, WarpsPerBlock: 2, MemInsnsPerWarp: 32,
			FootprintLines: 32, StreamPct: 1,
		}},
		MaxCycles:      2_000_000,
		FastForwardOff: true,
	}
	dir := filepath.Join(root, "cli-case")
	if err := conform.WriteCase(dir, sp, nil); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) (string, int) {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"-dir", root}, args...)...).CombinedOutput()
		if err == nil {
			return string(out), 0
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("conform did not run: %v\n%s", err, out)
		}
		return string(out), ee.ExitCode()
	}

	if out, code := run("-update"); code != 0 {
		t.Fatalf("-update exited %d:\n%s", code, out)
	}
	if out, code := run(); code != 0 {
		t.Fatalf("fresh corpus exited %d:\n%s", code, out)
	}
	if out, code := run("-list"); code != 0 || !strings.Contains(out, "cli-case") {
		t.Fatalf("-list exited %d or omitted the case:\n%s", code, out)
	}

	expected := filepath.Join(dir, conform.ExpectedFile)
	if err := faultinject.CorruptFileDigit(expected); err != nil {
		t.Fatal(err)
	}
	out, code := run()
	if code != 1 {
		t.Fatalf("perturbed expectation exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "DRIFT") || !strings.Contains(out, "@@") {
		t.Fatalf("perturbed expectation did not report drift with a diff:\n%s", out)
	}

	// Repair, then damage structurally: the report must switch from
	// drift to the corpus-repair message.
	if out, code := run("-update"); code != 0 {
		t.Fatalf("-update exited %d:\n%s", code, out)
	}
	if err := faultinject.TruncateFile(expected); err != nil {
		t.Fatal(err)
	}
	out, code = run()
	if code != 1 {
		t.Fatalf("truncated expectation exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "CORRUPT-EXPECTED") || strings.Contains(out, "@@") {
		t.Fatalf("truncated expectation not reported as corrupt (or reported as drift):\n%s", out)
	}
}
