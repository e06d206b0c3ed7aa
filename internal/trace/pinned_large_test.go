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
// inside the index. The SC digests below were taken on the commit
// before the block encoder replaced the per-instruction writer, the HG
// and synthetic ones on the commit before WriteFile handed its blocks
// to a hashing and writing helper. A change to one means DLPSTRM1
// files or cache keys written by this build differ from older ones: a
// format change, not a refactor.
const (
	pinnedSCKernelSHA256 = "5e67afaa48b1054a2f21a96ece1824cd9a70c28d5a6d6d577c64d973f89be894"
)

// pinnedSynth is a seeded synthetic stream with every access pattern.
var pinnedSynth = workloads.SynthSpec{
	Name: "pinned-synth", Seed: 11, Blocks: 16, WarpsPerBlock: 8, MemInsnsPerWarp: 64, ComputeRun: 4,
	FootprintLines: 2048, HotLines: 4, StorePct: 10, StreamPct: 20, StridePct: 20, GatherPct: 20,
	HotPct: 20, ConflictPct: 20,
}

var pinnedFiles = []struct {
	name   string
	stream func(t testing.TB) trace.Stream
	chunk  int
	sha256 string
}{
	// DefaultChunkInstrs, and a window size no flush lines up with.
	{"SC", func(t testing.TB) trace.Stream { return appSpec(t, "SC").Stream(1) }, 0,
		"0392c1ce9c0ee4fa765f8f83f3ac5f8090a55b5096befe02e1d76d084430b4ba"},
	{"SC", func(t testing.TB) trace.Stream { return appSpec(t, "SC").Stream(1) }, 37,
		"65d046d05e1b35fd59d8331479aecd788341fdb3b4bff587b2b5f947c8e2cdaf"},
	{"HG", func(t testing.TB) trace.Stream { return appSpec(t, "HG").Stream(1) }, 0,
		"e4fa6cd8e3f0fc76fca917a3e1831ba8150db6b0a43da6f2d88b82863574f991"},
	{"synth", func(testing.TB) trace.Stream { return pinnedSynth.Stream() }, 0,
		"3ae9c5cf857d3fc188a5528b1daceda2a403904298491659309ec02daa62934c"},
}

func appSpec(t testing.TB, abbr string) workloads.Spec {
	t.Helper()
	s, err := workloads.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPinnedLargeStreamFileDigest records SC at two window sizes, HG
// and a synthetic stream, and compares each file's sha256 with its pin.
// A chunk offset or size counted off the bytes flushed instead of the
// bytes encoded moves an index entry and fails it; so does a block
// handed to the writer out of order, twice or not at all.
func TestPinnedLargeStreamFileDigest(t *testing.T) {
	for _, p := range pinnedFiles {
		path := filepath.Join(t.TempDir(), "pinned.dlpstrm")
		if err := trace.WriteFile(path, p.stream(t), p.chunk); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if p.name == "SC" && len(b) < 8*trace.FileBufSize {
			t.Fatalf("%s chunk %d: file of %d bytes crosses fewer than 8 encoder flushes", p.name, p.chunk, len(b))
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != p.sha256 {
			t.Errorf("%s chunk %d: DLPSTRM1 bytes changed: sha256 %s, want %s (%d bytes)", p.name, p.chunk, got, p.sha256, len(b))
		}
	}
}

func TestPinnedLargeKernelDigest(t *testing.T) {
	k, err := trace.Materialize(appSpec(t, "SC").Stream(1))
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
