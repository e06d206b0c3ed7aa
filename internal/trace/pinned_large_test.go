package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// The SC application at scale 1 records to about 5.9 MB, more than 40
// encoder buffers, so flushes fall inside chunks, between warps and
// inside the index. Every digest below was taken on the commit before
// the block encoder replaced the per-instruction writer. A change to
// one means DLPSTRM1 files or cache keys written by this build differ
// from older ones: a format change, not a refactor.
const (
	pinnedSCKernelSHA256 = "5e67afaa48b1054a2f21a96ece1824cd9a70c28d5a6d6d577c64d973f89be894"
)

var pinnedSCFiles = []struct {
	chunk  int
	sha256 string
}{
	{0, "0392c1ce9c0ee4fa765f8f83f3ac5f8090a55b5096befe02e1d76d084430b4ba"},  // DefaultChunkInstrs
	{37, "65d046d05e1b35fd59d8331479aecd788341fdb3b4bff587b2b5f947c8e2cdaf"}, // a window size no flush lines up with
}

func scSpec(t testing.TB) workloads.Spec {
	t.Helper()
	sc, err := workloads.ByAbbr("SC")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestPinnedLargeStreamFileDigest records SC at scale 1 at two window
// sizes and compares each file's sha256 with the pin. A chunk offset or
// size counted off the bytes flushed instead of the bytes encoded moves
// an index entry and fails it.
func TestPinnedLargeStreamFileDigest(t *testing.T) {
	sc := scSpec(t)
	for _, p := range pinnedSCFiles {
		path := filepath.Join(t.TempDir(), "sc.dlpstrm")
		if err := trace.WriteFile(path, sc.Stream(1), p.chunk); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 8*trace.FileBufSize {
			t.Fatalf("chunk %d: file of %d bytes crosses fewer than 8 encoder flushes", p.chunk, len(b))
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != p.sha256 {
			t.Errorf("chunk %d: DLPSTRM1 bytes changed: sha256 %s, want %s", p.chunk, got, p.sha256)
		}
	}
}

func TestPinnedLargeKernelDigest(t *testing.T) {
	k, err := trace.Materialize(scSpec(t).Stream(1))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := k.Digest()
	if !ok {
		t.Fatal("SC has no digest")
	}
	if got != pinnedSCKernelSHA256 {
		t.Errorf("digest input bytes changed: sha256 %s, want %s", got, pinnedSCKernelSHA256)
	}
}
