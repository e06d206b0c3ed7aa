package dlpsim

import (
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sync"
	"testing"
)

// The subprocess tests drive the real binaries. Each main is built at
// most once per test binary, into one directory TestMain removes.
var (
	mainsMu  sync.Mutex
	mainsDir string
	mains    = map[string]string{} // package path -> built executable
)

// buildMain builds the main package pkg (such as "./cmd/dlpsim") and
// returns the executable's path; later calls for the same package reuse
// it.
func buildMain(t *testing.T, pkg string) string {
	t.Helper()
	mainsMu.Lock()
	defer mainsMu.Unlock()
	if bin, ok := mains[pkg]; ok {
		return bin
	}
	if mainsDir == "" {
		dir, err := os.MkdirTemp("", "dlpsim-mains-")
		if err != nil {
			t.Fatal(err)
		}
		mainsDir = dir
	}
	bin := filepath.Join(mainsDir, path.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	mains[pkg] = bin
	return bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if mainsDir != "" {
		os.RemoveAll(mainsDir)
	}
	os.Exit(code)
}
