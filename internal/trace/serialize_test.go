package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/prng"
)

// roundTrip saves k with WriteFile and loads it back with ReadKernel.
func roundTrip(t *testing.T, k *Kernel) *Kernel {
	t.Helper()
	path := filepath.Join(t.TempDir(), "k.dlpstrm")
	if err := WriteFile(path, NewKernelStream(k), 0); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadKernel(path)
	if err != nil {
		t.Fatalf("ReadKernel: %v", err)
	}
	return got
}

func TestSerializeRoundTrip(t *testing.T) {
	k := &Kernel{Name: "rt", Blocks: []*Block{{Warps: []*WarpTrace{{Instrs: []Instr{
		NewCompute(100, 4, 32),
		NewLoad(1, []addr.Addr{0, 4, 128}),
		NewStore(2, []addr.Addr{0xdeadbeef}),
	}}}}}}
	got := roundTrip(t, k)
	if !reflect.DeepEqual(k, got) {
		t.Errorf("round trip mismatch:\n%+v\nvs\n%+v", k, got)
	}
}

func TestSerializeRoundTripRandom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.dlpstrm")
	f := func(seed uint64, nb, nw, ni uint8) bool {
		rng := prng.New(seed)
		k := &Kernel{Name: "r"}
		for b := 0; b < int(nb)%3+1; b++ {
			blk := &Block{}
			for w := 0; w < int(nw)%3+1; w++ {
				wt := &WarpTrace{}
				for i := 0; i < int(ni)%8+1; i++ {
					switch rng.Intn(3) {
					case 0:
						wt.Instrs = append(wt.Instrs, NewCompute(uint32(rng.Intn(1000)), 1+rng.Intn(16), 1+rng.Intn(32)))
					case 1:
						wt.Instrs = append(wt.Instrs, NewLoad(uint32(rng.Intn(1000)), randA(rng)))
					default:
						wt.Instrs = append(wt.Instrs, NewStore(uint32(rng.Intn(1000)), randA(rng)))
					}
				}
				blk.Warps = append(blk.Warps, wt)
			}
			k.Blocks = append(k.Blocks, blk)
		}
		if err := WriteFile(path, NewKernelStream(k), 1+int(seed%5)); err != nil {
			return false
		}
		got, err := ReadKernel(path)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(k, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randA(rng *prng.Source) []addr.Addr {
	out := make([]addr.Addr, 1+rng.Intn(32))
	for i := range out {
		out[i] = addr.Addr(rng.Uint64())
	}
	return out
}

// wantFormatError fails the test unless err is a *FormatError naming path.
func wantFormatError(t *testing.T, what, path string, err error) {
	t.Helper()
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Errorf("%s: error %T (%v), want *FormatError", what, err, err)
	} else if fe.Path != path {
		t.Errorf("%s: FormatError.Path = %q, want %q", what, fe.Path, path)
	}
}

func TestReadKernelRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.dlpstrm")
	if err := WriteFile(good, NewKernelStream(testKernel(2, 2)), 8); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), whole...)
	flipped[40] ^= 0xff
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTATRACEFILE###"),
		// The seed's DLPTRACE header is not a trace file any more.
		"dlptrace":  append([]byte("DLPTRACE"), 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
		"truncated": whole[:len(whole)/2],
		"flipped":   flipped,
	}
	for name, data := range cases {
		path := filepath.Join(dir, name+".dlpstrm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		k, err := ReadKernel(path)
		if err == nil {
			t.Errorf("%s: accepted as %q", name, k.Name)
			continue
		}
		wantFormatError(t, name, path, err)
	}
	if _, err := ReadKernel(filepath.Join(dir, "missing.dlpstrm")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: error %v, want os.ErrNotExist", err)
	}
}

// writeCrafted writes hashed (header, chunk data and index, the index
// at indexOff) followed by a footer with a correct checksum: a file
// Open's checksum cannot fault, so only its structural checks can.
func writeCrafted(t *testing.T, path string, hashed []byte, indexOff int) {
	t.Helper()
	b := binary.LittleEndian.AppendUint64(append([]byte(nil), hashed...), uint64(indexOff))
	sum := sha256.Sum256(hashed)
	b = append(append(b, sum[:]...), streamMagic[:]...)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadKernelRejectsOversizedCounts(t *testing.T) {
	// A checksummed header claiming 2^31 blocks.
	hdr := append([]byte(nil), streamMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, streamVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, 8)     // chunk size
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)     // name length
	hdr = binary.LittleEndian.AppendUint32(hdr, 1<<31) // blocks
	hdr = binary.LittleEndian.AppendUint32(hdr, 1)     // warps of block 0
	path := filepath.Join(t.TempDir(), "huge.dlpstrm")
	writeCrafted(t, path, hdr, len(hdr))
	k, err := ReadKernel(path)
	if err == nil {
		t.Fatalf("oversized block count accepted as %q", k.Name)
	}
	wantFormatError(t, "2^31 blocks", path, err)
}

// TestReadKernelRejectsUnknownInstrKind: an instruction of a kind the
// decoder cannot size, in a file whose checksum is right, is a
// *FormatError from the Fill that meets it — not a panic.
func TestReadKernelRejectsUnknownInstrKind(t *testing.T) {
	k := &Kernel{Name: "kind9", Blocks: []*Block{{Warps: []*WarpTrace{{Instrs: []Instr{
		NewCompute(1, 4, 32), {Kind: Kind(9), PC: 4, ActiveLanes: 32},
	}}}}}}
	path := filepath.Join(t.TempDir(), "kind9.dlpstrm")
	if err := WriteFile(path, NewKernelStream(k), 0); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v (the checksum is right)", err)
	}
	f.Close()
	got, err := ReadKernel(path)
	if err == nil {
		t.Fatalf("unknown instruction kind accepted: %+v", got.Blocks[0].Warps[0].Instrs)
	}
	wantFormatError(t, "kind 9", path, err)
}

func TestSerializeWorkloadScale(t *testing.T) {
	// A realistic kernel survives the trip and validates afterwards.
	k := &Kernel{Name: "big"}
	for b := 0; b < 4; b++ {
		blk := &Block{}
		for w := 0; w < 8; w++ {
			wt := &WarpTrace{}
			for i := 0; i < 100; i++ {
				wt.Instrs = append(wt.Instrs, NewLoad(uint32(i%7), []addr.Addr{addr.Addr(i * 128)}))
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	got := roundTrip(t, k)
	if err := got.Validate(32); err != nil {
		t.Fatalf("deserialized kernel invalid: %v", err)
	}
	a, b := k.Summarize(128), got.Summarize(128)
	if *a != *b {
		t.Errorf("summaries differ: %+v vs %+v", a, b)
	}
}
