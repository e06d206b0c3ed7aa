package dlpsim

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMain runs a built main and returns its stdout, stderr and exit
// status; it fails the test if the process could not be run at all.
func runMain(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.String(), errOut.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("%s did not run: %v", filepath.Base(bin), err)
	}
	return out.String(), errOut.String(), 0
}

// mustRun is runMain for a run that has to succeed; it returns stdout.
func mustRun(t *testing.T, bin string, args ...string) string {
	t.Helper()
	stdout, stderr, code := runMain(t, bin, args...)
	if code != 0 {
		t.Fatalf("%s %s exited %d:\n%s", filepath.Base(bin), strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// dlpsimJSON is the part of `dlpsim -json` output the replay test reads.
type dlpsimJSON struct {
	App      string `json:"app"`
	Policy   string `json:"policy"`
	Counters *Stats `json:"counters"`
}

func decodeDlpsim(t *testing.T, stdout string) dlpsimJSON {
	t.Helper()
	var out dlpsimJSON
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatalf("dlpsim -json output does not decode: %v\n%s", err, stdout)
	}
	if out.Counters == nil || out.Counters.Instructions == 0 {
		t.Fatalf("dlpsim -json output has no counters:\n%s", stdout)
	}
	return out
}

// TestRecordReplayCLI is the command-line record/replay round trip:
// dlptrace records SC at 10x scale and verifies the file (digest and
// every warp decoded to its end), dlpsim replays it with the metrics and
// trace exports on, both exports re-parse, and the replay's counters
// equal those of dlpsim streaming the same app at the same scale. A
// -chunk below 1 is refused rather than replaced by the writer's
// default.
func TestRecordReplayCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	dlptrace, dlpsim := buildMain(t, "./cmd/dlptrace"), buildMain(t, "./cmd/dlpsim")
	dir := t.TempDir()

	refused := filepath.Join(dir, "chunk0.dlpstrm")
	if _, stderr, code := runMain(t, dlptrace, "record", "-app", "BP", "-chunk", "0", "-o", refused); code != 1 || !strings.Contains(stderr, "-chunk 0") {
		t.Errorf("dlptrace record -chunk 0: exit %d, want 1 with a -chunk message; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(refused); !os.IsNotExist(err) {
		t.Errorf("refused record left %s behind (stat: %v)", refused, err)
	}

	rec := filepath.Join(dir, "sc10.dlpstrm")
	mustRun(t, dlptrace, "record", "-app", "SC", "-scale", "10", "-o", rec)
	mustRun(t, dlptrace, "verify", rec)

	jsonlPath, chromePath := filepath.Join(dir, "replay.jsonl"), filepath.Join(dir, "replay.trace.json")
	replay := decodeDlpsim(t, mustRun(t, dlpsim, "-stream-file", rec, "-policy", "dlp", "-json",
		"-metrics", jsonlPath, "-trace", chromePath))
	jsonl, err := os.Open(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jsonl.Close()
	chrome, err := os.Open(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	defer chrome.Close()
	set, doc := readExports(t, jsonl, chrome)
	checkJobExported(t, set, doc, replay.App+" under "+replay.Policy)

	streamed := decodeDlpsim(t, mustRun(t, dlpsim, "-app", "SC", "-scale", "10", "-policy", "dlp", "-json"))
	if *replay.Counters != *streamed.Counters {
		t.Errorf("replayed counters differ from the streamed app's\nreplay:   %+v\nstreamed: %+v", replay.Counters, streamed.Counters)
	}
}
