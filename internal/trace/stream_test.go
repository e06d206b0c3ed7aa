package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/addr"
)

// testStream builds a deterministic kernel with mixed instruction kinds
// and uneven warp lengths, for round-trip and cursor tests.
func testKernel(blocks, warps int) *Kernel {
	k := &Kernel{Name: "stream-test"}
	for b := 0; b < blocks; b++ {
		blk := &Block{}
		for w := 0; w < warps; w++ {
			wt := &WarpTrace{}
			n := 5 + (b*warps+w)%150 // uneven lengths straddle chunk boundaries
			for i := 0; i < n; i++ {
				switch i % 3 {
				case 0:
					wt.Instrs = append(wt.Instrs, NewCompute(100, 3, 32))
				case 1:
					wt.Instrs = append(wt.Instrs,
						NewLoad(uint32(i%7), []addr.Addr{addr.Addr((b*1000 + w*100 + i) * 128)}))
				default:
					wt.Instrs = append(wt.Instrs, NewStore(uint32(8+i%3), []addr.Addr{
						addr.Addr((b*2000 + w*50 + i) * 128),
						addr.Addr((b*2000 + w*50 + i + 1) * 128),
					}))
				}
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	return k
}

// kernelsEqual compares two kernels instruction by instruction
// (ignoring coalescing memos).
func kernelsEqual(a, b *Kernel) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q vs %q", a.Name, b.Name)
	}
	if len(a.Blocks) != len(b.Blocks) {
		return fmt.Errorf("%d vs %d blocks", len(a.Blocks), len(b.Blocks))
	}
	for bi := range a.Blocks {
		if len(a.Blocks[bi].Warps) != len(b.Blocks[bi].Warps) {
			return fmt.Errorf("block %d: %d vs %d warps", bi, len(a.Blocks[bi].Warps), len(b.Blocks[bi].Warps))
		}
		for wi := range a.Blocks[bi].Warps {
			wa, wb := a.Blocks[bi].Warps[wi], b.Blocks[bi].Warps[wi]
			if len(wa.Instrs) != len(wb.Instrs) {
				return fmt.Errorf("block %d warp %d: %d vs %d instrs", bi, wi, len(wa.Instrs), len(wb.Instrs))
			}
			for ii := range wa.Instrs {
				ia, ib := &wa.Instrs[ii], &wb.Instrs[ii]
				if ia.Kind != ib.Kind || ia.PC != ib.PC || ia.Latency != ib.Latency ||
					ia.ActiveLanes != ib.ActiveLanes || len(ia.Addrs) != len(ib.Addrs) {
					return fmt.Errorf("block %d warp %d instr %d differs", bi, wi, ii)
				}
				for l := range ia.Addrs {
					if ia.Addrs[l] != ib.Addrs[l] {
						return fmt.Errorf("block %d warp %d instr %d lane %d differs", bi, wi, ii, l)
					}
				}
			}
		}
	}
	return nil
}

// TestMaterializeRoundTrip pins the eager bridge: materializing a
// kernel-backed stream reproduces the kernel.
func TestMaterializeRoundTrip(t *testing.T) {
	k := testKernel(3, 4)
	got, err := Materialize(NewKernelStream(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := kernelsEqual(k, got); err != nil {
		t.Fatal(err)
	}
}

// TestFileStreamRoundTrip records a kernel into the on-disk stream
// format with an awkward chunk size and replays it back.
func TestFileStreamRoundTrip(t *testing.T) {
	k := testKernel(3, 5)
	path := filepath.Join(t.TempDir(), "k.dlpstrm")
	if err := WriteFile(path, NewKernelStream(k), 7); err != nil {
		t.Fatal(err)
	}
	fs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.ChunkInstrs() != 7 {
		t.Errorf("ChunkInstrs = %d, want 7", fs.ChunkInstrs())
	}
	if fs.Digest() == "" || fs.SpecKey() != "file:sha256:"+fs.Digest() {
		t.Errorf("SpecKey %q inconsistent with digest %q", fs.SpecKey(), fs.Digest())
	}
	got, err := Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := kernelsEqual(k, got); err != nil {
		t.Fatal(err)
	}
}

// TestFileStreamRerecord re-records an open FileStream under a
// different chunk size — the reader's windows (size 7) do not align
// with the writer's chunks (size 16), exercising the rewindowing path.
func TestFileStreamRerecord(t *testing.T) {
	k := testKernel(2, 3)
	dir := t.TempDir()
	first := filepath.Join(dir, "a.dlpstrm")
	if err := WriteFile(first, NewKernelStream(k), 7); err != nil {
		t.Fatal(err)
	}
	fs, err := Open(first)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	second := filepath.Join(dir, "b.dlpstrm")
	if err := WriteFile(second, fs, 16); err != nil {
		t.Fatal(err)
	}
	fs2, err := Open(second)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	got, err := Materialize(fs2)
	if err != nil {
		t.Fatal(err)
	}
	if err := kernelsEqual(k, got); err != nil {
		t.Fatal(err)
	}
}

// corrupt mirrors internal/faultinject's file-corruption modes. The
// helpers themselves live above the trace package (faultinject imports
// the runner), so the byte-level operations are inlined here.
func truncateHalf(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsCorruptFiles proves every corruption mode surfaces as
// a typed *FormatError at Open time: truncation, garbling, a flipped
// payload byte (caught by the whole-file checksum), and a flipped
// footer byte.
func TestOpenRejectsCorruptFiles(t *testing.T) {
	k := testKernel(2, 3)
	write := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "k.dlpstrm")
		if err := WriteFile(path, NewKernelStream(k), 8); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", truncateHalf},
		{"garbled", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("\x00\xffnot a stream\x00"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload-byte-flip", func(t *testing.T, path string) {
			flipByte(t, path, 64) // inside the chunk data
		}},
		{"footer-byte-flip", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			flipByte(t, path, info.Size()-4) // inside the tail magic
		}},
		{"empty", func(t *testing.T, path string) {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := write(t)
			tc.corrupt(t, path)
			fs, err := Open(path)
			if err == nil {
				fs.Close()
				t.Fatal("Open accepted a corrupt file")
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Open error %T (%v), want *FormatError", err, err)
			}
			if fe.Path != path {
				t.Errorf("FormatError.Path = %q, want %q", fe.Path, path)
			}
		})
	}
}

// TestCursorStreamWalk drives every warp of a file stream at once,
// round-robin through one pool — an SM's resident warps — and checks
// the instruction sequence and indices against the precomputed form.
// Each cursor keeps only its packed ops; its Cur must still read its
// own instruction, re-read from the pool's scratch chunk after other
// cursors have filled it.
func TestCursorStreamWalk(t *testing.T) {
	k := testKernel(2, 4)
	path := filepath.Join(t.TempDir(), "k.dlpstrm")
	if err := WriteFile(path, NewKernelStream(k), 8); err != nil {
		t.Fatal(err)
	}
	fs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	pool := NewChunkPool(8)
	var curs []*Cursor
	var wants [][]Instr
	for b, blk := range k.Blocks {
		for w, wt := range blk.Warps {
			cur := &Cursor{}
			cur.InitStream(fs, pool, 128, b, w)
			curs = append(curs, cur)
			wants = append(wants, wt.Instrs)
		}
	}
	for i := 0; ; i++ {
		walking := false
		for c, cur := range curs {
			want := wants[c]
			if i >= len(want) {
				if !cur.Exhausted() {
					t.Fatalf("cursor %d: not exhausted after %d instrs", c, len(want))
				}
				continue
			}
			walking = true
			if cur.Exhausted() {
				t.Fatalf("cursor %d: exhausted at %d/%d", c, i, len(want))
			}
			if cur.Index() != i {
				t.Fatalf("cursor %d: Index=%d, want %d", c, cur.Index(), i)
			}
			if ch := cur.chunk; cap(ch.Instrs) != 0 || cap(ch.Addrs) != 0 || cur.win != nil {
				t.Fatalf("cursor %d holds an instruction window: chunk caps %d/%d, %d instrs",
					c, cap(ch.Instrs), cap(ch.Addrs), len(cur.win))
			}
			in := cur.Cur()
			if in.Kind != want[i].Kind || in.PC != want[i].PC {
				t.Fatalf("cursor %d instr %d: got kind=%v pc=%d", c, i, in.Kind, in.PC)
			}
			if in.Kind != Compute {
				// The re-read instruction must coalesce like the eager one.
				want := want[i].CoalescedLines(128)
				got := in.CoalescedLines(128)
				if len(got) != len(want) {
					t.Fatalf("cursor %d instr %d: %d coalesced lines, want %d", c, i, len(got), len(want))
				}
				for l := range got {
					if got[l] != want[l] {
						t.Fatalf("cursor %d instr %d line %d differs", c, i, l)
					}
				}
			}
			if err := cur.CheckOp(128); err != nil {
				t.Fatalf("cursor %d: %v", c, err)
			}
			cur.Advance()
		}
		if !walking {
			break
		}
	}
	for c, cur := range curs {
		if err := cur.Err(); err != nil {
			t.Errorf("cursor %d: %v", c, err)
		}
		cur.Release()
	}
}

// TestFillReportsMisalignedStart pins the Fill contract: a start that
// is not a chunk boundary is a caller bug, reported as a *FormatError on
// the chunk with an empty eof window.
func TestFillReportsMisalignedStart(t *testing.T) {
	k := testKernel(1, 1)
	path := filepath.Join(t.TempDir(), "k.dlpstrm")
	if err := WriteFile(path, NewKernelStream(k), 8); err != nil {
		t.Fatal(err)
	}
	fs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	c := NewChunkPool(8).Get()
	win, eof, _ := fs.Fill(0, 0, 3, c)
	if len(win) != 0 || !eof {
		t.Errorf("misaligned Fill returned %d instrs, eof=%v; want an empty eof window", len(win), eof)
	}
	var fe *FormatError
	if !errors.As(c.Err, &fe) {
		t.Fatalf("Chunk.Err = %v, want a *FormatError", c.Err)
	}
	c.Reset()
	if c.Err != nil {
		t.Errorf("Reset left Chunk.Err = %v", c.Err)
	}
	if win, _, _ := fs.Fill(0, 0, 0, c); len(win) == 0 || c.Err != nil {
		t.Errorf("aligned Fill after a failed one: %d instrs, Err %v", len(win), c.Err)
	}
}

// TestDamageAfterOpenEndsTheCursor: bytes that change under an open
// FileStream — a chunk overwritten with an unknown kind, or the file
// truncated — end the warp's cursor with a *FormatError at the refill
// that reads them, and fail Materialize and WriteFile the same way.
func TestDamageAfterOpenEndsTheCursor(t *testing.T) {
	k := testKernel(1, 1) // one warp of 5 instructions: chunks at 0 and 4
	for _, damage := range []string{"overwrite", "truncate"} {
		t.Run(damage, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "k.dlpstrm")
			if err := WriteFile(path, NewKernelStream(k), 4); err != nil {
				t.Fatal(err)
			}
			fs, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			second := fs.warps[0].chunks[1].off
			if damage == "overwrite" {
				flipByte(t, path, second) // kind 0 (compute) becomes 0xff
			} else if err := os.Truncate(path, second); err != nil {
				t.Fatal(err)
			}
			var cur Cursor
			cur.InitStream(fs, NewChunkPool(4), 128, 0, 0)
			n := 0
			for ; !cur.Exhausted(); cur.Advance() {
				n++
			}
			var fe *FormatError
			if !errors.As(cur.Err(), &fe) || fe.Path != path {
				t.Fatalf("cursor Err = %v, want a *FormatError for %s", cur.Err(), path)
			}
			if n != 4 {
				t.Errorf("cursor walked %d instructions, want the 4 before the damage", n)
			}
			if _, err := Materialize(fs); !errors.As(err, &fe) {
				t.Errorf("Materialize: %v, want a *FormatError", err)
			}
			if err := WriteFile(filepath.Join(t.TempDir(), "copy.dlpstrm"), fs, 0); !errors.As(err, &fe) {
				t.Errorf("WriteFile: %v, want a *FormatError", err)
			}
		})
	}
}

// TestFailedReReadIsTheCheckError: once its pool has filled another
// window, a packing cursor's CheckOp re-reads its own. If the file was
// damaged in between, the re-read's *FormatError is CheckOp's error and
// Cur is nil — never a panic — while the packed op stays readable.
func TestFailedReReadIsTheCheckError(t *testing.T) {
	k := testKernel(1, 2)
	path := filepath.Join(t.TempDir(), "k.dlpstrm")
	if err := WriteFile(path, NewKernelStream(k), 4); err != nil {
		t.Fatal(err)
	}
	fs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	pool := NewChunkPool(4)
	var a, b Cursor
	a.InitStream(fs, pool, 128, 0, 0)
	b.InitStream(fs, pool, 128, 0, 1)
	if err := a.CheckOp(128); err != nil {
		t.Fatalf("re-read of an intact window: %v", err)
	}
	// The pool holds warp 1's window again; then warp 0's first
	// instruction, a compute (kind 0), becomes kind 0xff.
	b.Rewind()
	flipByte(t, path, fs.warps[0].chunks[0].off)
	err = a.CheckOp(128)
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Path != path {
		t.Fatalf("CheckOp after damage = %v, want a *FormatError for %s", err, path)
	}
	if in := a.Cur(); in != nil {
		t.Errorf("Cur after a failed re-read = %+v, want nil", *in)
	}
	if op := a.Op(); op.Kind != Compute || op.Latency() != 3 {
		t.Errorf("packed op after a failed re-read = {%v latency %d}, want the compute op it was packed as", op.Kind, op.Latency())
	}
}

// TestWriteFileRejectsBadShapes covers writer-side validation.
func TestWriteFileRejectsBadShapes(t *testing.T) {
	dir := t.TempDir()
	empty := &Kernel{Name: "empty", Blocks: []*Block{{Warps: []*WarpTrace{{}}}}}
	err := WriteFile(filepath.Join(dir, "e.dlpstrm"), NewKernelStream(empty), 8)
	if err == nil {
		t.Fatal("WriteFile accepted an empty warp")
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("WriteFile error %T, want *FormatError", err)
	}
}

// TestMultiStreamShape checks block/warp indexing across concatenated
// sub-streams and the composed cache key.
func TestMultiStreamShape(t *testing.T) {
	a := testKernel(2, 3)
	b := testKernel(3, 2)
	b.Name = "second"
	m := NewMultiStream("pair", NewKernelStream(a), NewKernelStream(b))
	if m.Blocks() != 5 {
		t.Fatalf("Blocks = %d, want 5", m.Blocks())
	}
	if got := m.Warps(1); got != 3 {
		t.Errorf("Warps(1) = %d, want 3", got)
	}
	if got := m.Warps(4); got != 2 {
		t.Errorf("Warps(4) = %d, want 2", got)
	}
	if m.SpecKey() != "" {
		t.Errorf("SpecKey = %q, want \"\" (kernel-backed subs are uncacheable)", m.SpecKey())
	}
	got, err := Materialize(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != 5 {
		t.Fatalf("materialized %d blocks, want 5", len(got.Blocks))
	}
	if err := kernelsEqual(b, &Kernel{Name: b.Name, Blocks: got.Blocks[2:]}); err != nil {
		t.Fatal(err)
	}
}
