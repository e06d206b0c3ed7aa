package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/addr"
	"repro/internal/prng"
)

// referenceWriteInstr is the instruction encoder as it stood before the
// stack-buffer fast path: one binary.Write per field. It defines the
// bytes the digest input and DLPSTRM1 — and therefore every runner cache
// key and every trace file on disk — are made of.
func referenceWriteInstr(w io.Writer, in *Instr) error {
	write := func(v interface{}) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := write(uint8(in.Kind)); err != nil {
		return err
	}
	if err := write(in.PC); err != nil {
		return err
	}
	if in.Kind == Compute {
		if err := write(uint32(in.Latency)); err != nil {
			return err
		}
		return write(uint8(in.ActiveLanes))
	}
	if err := write(uint8(len(in.Addrs))); err != nil {
		return err
	}
	for _, a := range in.Addrs {
		if err := write(uint64(a)); err != nil {
			return err
		}
	}
	return nil
}

func randInstr(rng *prng.Source) Instr {
	pc := uint32(rng.Uint64())
	switch rng.Intn(3) {
	case 0:
		return NewCompute(pc, 1+rng.Intn(1<<20), 1+rng.Intn(32))
	case 1:
		return NewLoad(pc, randA(rng))
	default:
		return NewStore(pc, randA(rng))
	}
}

// TestAppendInstrMatchesBinaryWrite checks the fast encoder byte for byte
// against the binary.Write reference on random instructions of all three
// kinds, including the widest (32-lane) memory instructions.
func TestAppendInstrMatchesBinaryWrite(t *testing.T) {
	rng := prng.New(0xe4c0de)
	for i := 0; i < 5000; i++ {
		in := randInstr(rng)
		var want bytes.Buffer
		if err := referenceWriteInstr(&want, &in); err != nil {
			t.Fatal(err)
		}
		got, err := appendInstr(nil, &in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got) {
			t.Fatalf("instr %d (%+v):\n got %x\nwant %x", i, in, got, want.Bytes())
		}
	}
}

func TestAppendInstrRejectsTooManyLanes(t *testing.T) {
	in := NewLoad(1, make([]addr.Addr, maxLanes+1))
	if _, err := appendInstr(nil, &in); err == nil {
		t.Fatal("256-lane instruction encoded; the lane count is one byte")
	}
}

// pinnedKernel is a fixed kernel covering every encoder path: several
// blocks of unequal warp counts, all three instruction kinds, 1- to
// 32-lane memory instructions, and warps longer than one 8-instruction
// chunk. Its contents depend only on the PRNG seed below.
func pinnedKernel() *Kernel {
	rng := prng.New(0x5eed)
	k := &Kernel{Name: "pinned-digest"}
	for b := 0; b < 3; b++ {
		blk := &Block{}
		for w := 0; w < 1+b; w++ {
			wt := &WarpTrace{}
			for i := 0; i < 5+7*w+3*b; i++ {
				wt.Instrs = append(wt.Instrs, randInstr(rng))
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	return k
}

// Both digests below were taken on the commit before the encoder was
// rewritten. A change to either means cache keys no longer match
// results already on disk, or DLPSTRM1 files written by this build
// differ from older ones: that is a format change, not a refactor.
const (
	pinnedKernelSHA256     = "dde139ef7f35f376ff31ed92c79e613e65499ef2cee1e8ec5b9d05c1cd8f85ab"
	pinnedStreamFileSHA256 = "611d3c140f4f61b8c7cea34d35f02c51fb188be46645a3cb2bd069330abed568"
)

func TestPinnedKernelDigest(t *testing.T) {
	got, ok := pinnedKernel().Digest()
	if !ok {
		t.Fatal("pinned kernel has no digest")
	}
	if got != pinnedKernelSHA256 {
		t.Errorf("digest input bytes changed: sha256 %s, want %s", got, pinnedKernelSHA256)
	}
}

// TestEncodingRefusesWhatItCannotHold: a compute instruction whose lanes
// or latency do not fit their field is refused, not truncated — 288
// lanes (a legal count on a 1024-wide warp) used to encode as 32, so two
// different kernels shared one digest and one trace file replayed the
// other's lanes. Such a kernel has no digest (the runner does not cache
// it) and no trace file.
func TestEncodingRefusesWhatItCannotHold(t *testing.T) {
	for _, in := range []Instr{
		NewCompute(1, 4, maxLanes+1),
		NewCompute(1, 4, 288),
		NewCompute(1, 4, -1),
		NewCompute(1, 1<<32, 32),
		NewCompute(1, -1, 32),
	} {
		if b, err := appendInstr(nil, &in); err == nil {
			t.Errorf("lanes %d latency %d encoded as %x", in.ActiveLanes, in.Latency, b)
		}
		k := &Kernel{Name: "wide", Blocks: []*Block{{Warps: []*WarpTrace{{Instrs: []Instr{in}}}}}}
		if d, ok := k.Digest(); ok {
			t.Errorf("lanes %d latency %d: digest %s", in.ActiveLanes, in.Latency, d)
		}
		if err := WriteFile(filepath.Join(t.TempDir(), "k.dlpstrm"), NewKernelStream(k), 0); err == nil {
			t.Errorf("lanes %d latency %d: WriteFile accepted it", in.ActiveLanes, in.Latency)
		}
	}
	// The edges of each field still encode, and distinctly.
	seen := map[string]bool{}
	for _, in := range []Instr{
		NewCompute(1, 4, 0), NewCompute(1, 4, maxLanes), NewCompute(1, 0, 32), NewCompute(1, 1<<32-1, 32),
	} {
		k := &Kernel{Name: "edge", Blocks: []*Block{{Warps: []*WarpTrace{{Instrs: []Instr{in}}}}}}
		d, ok := k.Digest()
		if !ok || seen[d] {
			t.Errorf("lanes %d latency %d: digest %q ok=%v (seen before: %v)", in.ActiveLanes, in.Latency, d, ok, seen[d])
		}
		seen[d] = true
	}
}

func TestPinnedStreamFileDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pinned.dlpstrm")
	if err := WriteFile(path, NewKernelStream(pinnedKernel()), 8); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != pinnedStreamFileSHA256 {
		t.Errorf("DLPSTRM1 bytes changed: sha256 %s, want %s", got, pinnedStreamFileSHA256)
	}
}
