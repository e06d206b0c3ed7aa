package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

	// A checksummed header claiming 16 blocks of 65 535 warps, about a
	// million, over an index of 16 bytes: refused before a warp table
	// is allocated for them (Open parses the header beside the hash, so
	// a corrupt header reaches this check too).
	hdr = append([]byte(nil), streamMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, streamVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, 8)  // chunk size
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)  // name length
	hdr = binary.LittleEndian.AppendUint32(hdr, 16) // blocks
	for range 16 {
		hdr = binary.LittleEndian.AppendUint32(hdr, maxWarps-1)
	}
	indexOff := len(hdr)
	hdr = append(hdr, make([]byte, 16)...)
	writeCrafted(t, path, hdr, indexOff)
	if k, err = ReadKernel(path); err == nil {
		t.Fatalf("a million warps over a 16-byte index accepted as %q", k.Name)
	}
	wantFormatError(t, "a million warps", path, err)
	if want := "index of 16 bytes cannot hold 1048560 warps"; !strings.Contains(err.Error(), want) {
		t.Errorf("a million warps: error %q does not say %q", err, want)
	}
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

// craftedIndexFile writes a one-block, two-warp file whose checksum is
// right: warp 0 is one compute instruction in the chunk at [28, 38),
// the index starts at 38, and index1 is warp 1's index entry, whatever
// it holds.
func craftedIndexFile(t *testing.T, path string, index1 []byte) {
	t.Helper()
	b := append([]byte(nil), streamMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, streamVersion)
	b = binary.LittleEndian.AppendUint32(b, 8) // chunk size
	b = binary.LittleEndian.AppendUint32(b, 0) // name length
	b = binary.LittleEndian.AppendUint32(b, 1) // blocks
	b = binary.LittleEndian.AppendUint32(b, 2) // warps of block 0
	in := NewCompute(1, 4, 32)
	chunkOff := len(b)
	b, err := appendInstr(b, &in)
	if err != nil {
		t.Fatal(err)
	}
	indexOff := len(b)
	if chunkOff != 28 || indexOff != 38 {
		t.Fatalf("crafted chunk at [%d, %d), want [28, 38)", chunkOff, indexOff)
	}
	b = binary.LittleEndian.AppendUint32(b, 1) // warp 0: one instruction
	b = binary.LittleEndian.AppendUint64(b, uint64(chunkOff))
	b = binary.LittleEndian.AppendUint32(b, uint32(indexOff-chunkOff))
	writeCrafted(t, path, append(b, index1...), indexOff)
}

// TestOpenRejectsHostileIndex: an index the checksum vouches for but
// whose entries are wrong is a *FormatError naming the warp or chunk,
// never a panic or an accepted file.
func TestOpenRejectsHostileIndex(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	entry := func(instrs uint32, off uint64, size uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(u32(instrs), off), size)
	}
	cases := []struct {
		name  string
		index []byte
		want  string
	}{
		{"no instructions", u32(0), "warp 1 instr count 0"},
		{"span past chunk data", entry(1, 30, 10), "warp 1 chunk 0 spans [30, 40) outside chunk data [28, 38)"},
		{"span into the header", entry(1, 20, 10), "warp 1 chunk 0 spans [20, 30)"},
		{"offset past int64", entry(1, 1<<63-5, 10), "warp 1 chunk 0 spans [9223372036854775803, "},
		{"empty chunk", entry(1, 28, 0), "warp 1 chunk 0 spans [28, 28)"},
		{"more chunks than entries", entry(9, 28, 10), "warp 1 chunk 1"},
		{"cut off in the count", u32(1)[:3], "warp 1 instr count"},
		{"cut off in an offset", entry(1, 28, 10)[:9], "warp 1 chunk 0 entry cut off"},
		{"cut off in a size", entry(1, 28, 10)[:14], "warp 1 chunk 0 entry cut off"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "hostile.dlpstrm")
		craftedIndexFile(t, path, c.index)
		s, err := Open(path)
		if err == nil {
			s.Close()
			t.Errorf("%s: accepted", c.name)
			continue
		}
		wantFormatError(t, c.name, path, err)
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
	// The good warp alone opens: the cases above fail on warp 1 only.
	path := filepath.Join(t.TempDir(), "good.dlpstrm")
	craftedIndexFile(t, path, entry(1, 28, 10))
	s, err := Open(path)
	if err != nil {
		t.Fatalf("well-formed crafted file: %v", err)
	}
	s.Close()
}

// TestOpenAllocatesPerWarp: parsing the index costs a bounded number of
// allocations per warp, however many chunk entries the warps hold, and
// builds no error text on the success path. The file has 32 warps of
// one-instruction chunks, about 900 index entries.
func TestOpenAllocatesPerWarp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.dlpstrm")
	if err := WriteFile(path, NewKernelStream(testKernel(4, 8)), 1); err != nil {
		t.Fatal(err)
	}
	const warps = 32
	allocs := testing.AllocsPerRun(10, func() {
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	if bound := float64(warps + 32); allocs > bound {
		t.Errorf("Open allocates %.0f times for %d warps, want at most %.0f", allocs, warps, bound)
	}
}
