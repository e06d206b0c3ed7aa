package trace

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/addr"
)

// TestOpAndInstrSizes pins the layout the issue stage's host-cache
// behaviour rests on: four ops to a 64-byte line, and an Instr small
// enough that by-value appends compile to plain moves.
func TestOpAndInstrSizes(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 16 {
		t.Errorf("Sizeof(Op{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(Instr{}); got > 48 {
		t.Errorf("Sizeof(Instr{}) = %d, want <= 48", got)
	}
}

// wideKernel is one warp of `lanes`-wide instructions: a compute, a
// fully coalesced load, a fully diverged store (one line per lane) and
// a load that folds onto two lines.
func wideKernel(lanes int) *Kernel {
	seq, spread, pair := make([]addr.Addr, lanes), make([]addr.Addr, lanes), make([]addr.Addr, lanes)
	for i := range seq {
		seq[i] = addr.Addr(0x1000 + i%32)
		spread[i] = addr.Addr(0x100000 + i*4096)
		pair[i] = addr.Addr(0x8000 + (i%2)*512)
	}
	return &Kernel{Name: "wide", Blocks: []*Block{{Warps: []*WarpTrace{{Instrs: []Instr{
		NewCompute(1, 7, lanes), NewLoad(2, seq), NewStore(3, spread), NewLoad(4, pair),
	}}}}}}
}

// TestPackWideWarps packs 64- and 1024-lane kernels — config.Validate
// admits WarpSize up to 1024 — and checks every op against its Instr:
// no lane count or per-op line count may wrap.
func TestPackWideWarps(t *testing.T) {
	for _, lanes := range []int{32, 64, 1024} {
		k := wideKernel(lanes)
		if err := k.Validate(lanes); err != nil {
			t.Fatal(err)
		}
		for _, lineSize := range []int{32, 128} {
			if err := k.Pack(lineSize, lanes); err != nil {
				t.Fatalf("lanes=%d lineSize=%d: %v", lanes, lineSize, err)
			}
			var cur Cursor
			cur.InitPacked(k.Blocks[0].Warps[0], lineSize)
			wantLines := []int{0, 1, lanes, 2}
			for i := 0; !cur.Exhausted(); i++ {
				if err := cur.CheckOp(lineSize); err != nil {
					t.Fatalf("lanes=%d lineSize=%d: %v", lanes, lineSize, err)
				}
				if got := cur.Op().ActiveLanes(); got != lanes {
					t.Errorf("lanes=%d insn %d: op carries %d lanes", lanes, i, got)
				}
				if cur.Op().Kind != Compute && len(cur.OpLines()) != wantLines[i] {
					t.Errorf("lanes=%d lineSize=%d insn %d: %d lines, want %d",
						lanes, lineSize, i, len(cur.OpLines()), wantLines[i])
				}
				cur.Advance()
			}
		}
	}
}

// TestPackRefusesWhatDoesNotFit: a value an Op field cannot hold is a
// typed error from every way in — Kernel.Pack, a packed cursor, a
// streaming cursor's refill — and never a wrapped-around field.
func TestPackRefusesWhatDoesNotFit(t *testing.T) {
	fits := NewCompute(1, MaxOpLatency, MaxOpLanes)
	cases := []struct {
		name  string
		in    Instr
		field string
		value int64
	}{
		{"latency", NewCompute(1, MaxOpLatency+1, 32), "latency", MaxOpLatency + 1},
		{"lanes", NewCompute(1, 4, MaxOpLanes+1), "lanes", MaxOpLanes + 1},
		{"mem lanes", Instr{Kind: Load, PC: 2, ActiveLanes: 1 << 20, Addrs: []addr.Addr{0}}, "lanes", 1 << 20},
	}
	for _, tc := range cases {
		wt := &WarpTrace{Instrs: []Instr{fits, tc.in}}
		k := &Kernel{Name: "bad", Blocks: []*Block{{Warps: []*WarpTrace{wt}}}}
		check := func(how string, err error) {
			t.Helper()
			var pe *PackError
			if !errors.As(err, &pe) {
				t.Fatalf("%s/%s: error %v is not a *PackError", tc.name, how, err)
			}
			if pe.Insn != 1 || pe.Field != tc.field || pe.Value != tc.value {
				t.Errorf("%s/%s: PackError %+v, want insn 1 field %s value %d", tc.name, how, *pe, tc.field, tc.value)
			}
		}
		check("Kernel.Pack", k.Pack(128, MaxOpLanes))
		k.PrecomputeCoalesced(128) // must neither panic nor publish a program
		if wt.prog.Load() != nil {
			t.Errorf("%s: a program was published for an unpackable warp", tc.name)
		}

		var cur Cursor
		cur.InitPacked(wt, 128)
		if !cur.Exhausted() {
			t.Errorf("%s: packed cursor over an unpackable warp is not exhausted", tc.name)
		}
		check("InitPacked", cur.Err())

		// Window size 1: the first window packs, the refill hits the bad one.
		cur.InitStream(NewKernelStream(k), NewChunkPool(1), 128, 0, 0)
		if cur.Exhausted() || cur.Err() != nil || cur.Op().Latency() != MaxOpLatency || cur.Op().ActiveLanes() != MaxOpLanes {
			t.Fatalf("%s: first window did not pack to the limits: err %v", tc.name, cur.Err())
		}
		cur.Advance()
		if !cur.Exhausted() {
			t.Errorf("%s: streaming cursor walked into an unpackable window", tc.name)
		}
		check("refill", cur.Err())
		cur.Release()
	}
}

// TestKernelStreamWindows: the compat stream sizes its windows to the
// chunk like every other backend, so a cursor's packed window — and the
// pooled chunk holding it — stays bounded by the pool's window size
// whatever the warp's length.
func TestKernelStreamWindows(t *testing.T) {
	k := testKernel(1, 40)
	src := NewKernelStream(k)
	for _, window := range []int{1, 7, 64} {
		pool := NewChunkPool(window)
		c := pool.Get()
		for wi, wt := range k.Blocks[0].Warps {
			seen := 0
			for eof := false; !eof; {
				c.Reset()
				var win []Instr
				win, eof, _ = src.Fill(0, wi, seen, c)
				if len(win) > window || (len(win) == 0 && !eof) {
					t.Fatalf("window=%d warp %d at %d: window of %d instrs, eof=%v", window, wi, seen, len(win), eof)
				}
				if len(win) > 0 && &win[0] != &wt.Instrs[seen] {
					t.Fatalf("window=%d warp %d at %d: window does not alias the kernel", window, wi, seen)
				}
				seen += len(win)
			}
			if seen != len(wt.Instrs) {
				t.Errorf("window=%d warp %d: windows cover %d of %d instrs", window, wi, seen, len(wt.Instrs))
			}
		}
	}
}
