package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// aheadSynth is a generator stream with every access pattern, diverged
// gathers (multi-line ops) among them, and warps five windows long.
var aheadSynth = workloads.SynthSpec{
	Name: "read-ahead", Seed: 0xa4ead,
	Blocks: 4, WarpsPerBlock: 6, MemInsnsPerWarp: 150, ComputeRun: 1,
	FootprintLines: 512, HotLines: 8, StorePct: 15,
	StreamPct: 3, StridePct: 2, GatherPct: 2, HotPct: 2, ConflictPct: 1,
}

// record writes src as a DLPSTRM1 file with the default window size and
// opens it; damage, if set, overwrites the back half of the chunk data
// first, so every window starting there fails to decode.
func record(t *testing.T, src trace.Stream, damage bool) *trace.FileStream {
	t.Helper()
	path := filepath.Join(t.TempDir(), "k.dlpstrm")
	if err := trace.WriteFile(path, src, 0); err != nil {
		t.Fatal(err)
	}
	fs, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	if damage {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		end := int64(binary.LittleEndian.Uint64(b[len(b)-48:])) // the index offset
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, int(end/2)), end-end/2); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// A step is what a walk reads at one instruction of one warp.
type step struct {
	index int
	op    trace.Op
	lines []addr.Addr
	check string // CheckOp's error; "" when it passes
}

// A warpEnd is how a warp's cursor ended: its Index and its Err.
type warpEnd struct {
	index int
	err   string
}

// walk drives every warp of src round-robin through one pool, as an
// SM drives its resident warps, and logs every step and every warp's
// end. ahead is "none" (no helper), "drained" (the helper has settled
// every posted window before each Advance) or "racing" (each Advance
// hands the posted windows over and goes on). fromHelper counts the
// drained walk's steps at which the advancing warp's next window was
// ready from the helper.
func walk(t *testing.T, src trace.Stream, ahead string) (steps [][]step, ends []warpEnd, fromHelper int) {
	t.Helper()
	pool := trace.NewChunkPool(0)
	var ra *trace.ReadAhead
	if ahead != "none" {
		ra = trace.StartReadAhead()
		defer ra.Stop()
		pool.Ahead = ra
	}
	var curs []*trace.Cursor
	for b := 0; b < src.Blocks(); b++ {
		for w := 0; w < src.Warps(b); w++ {
			c := &trace.Cursor{}
			c.InitStream(src, pool, 128, b, w)
			curs = append(curs, c)
		}
	}
	steps = make([][]step, len(curs))
	for live := true; live; {
		live = false
		for i, c := range curs {
			if c.Exhausted() {
				continue
			}
			live = true
			s := step{index: c.Index(), op: *c.Op()}
			if s.op.Kind != trace.Compute {
				s.lines = slices.Clone(c.OpLines())
			}
			if err := c.CheckOp(128); err != nil {
				s.check = err.Error()
			}
			steps[i] = append(steps[i], s)
			switch ahead {
			case "drained":
				ra.Flush()
				for _, d := range curs {
					if d.AwaitAhead() && d == c {
						fromHelper++
					}
				}
			case "racing":
				ra.Flush()
			}
			c.Advance()
		}
	}
	for _, c := range curs {
		ends = append(ends, warpEnd{c.Index(), fmt.Sprint(c.Err())})
		c.Release()
	}
	return steps, ends, fromHelper
}

// TestReadAheadWalksTheSameWindows: a window filled ahead on the helper
// is the window an inline fill reads. Every warp of a generator stream
// and of a DLPSTRM1 file — intact, and damaged in its back half — walks
// to the same ops, the same coalesced lines and the same CheckOp
// verdicts, op for op, with no helper, with the helper drained before
// each Advance, and with the helper racing the walk; a damaged warp
// ends with the same *FormatError at the same Index on every leg.
func TestReadAheadWalksTheSameWindows(t *testing.T) {
	backends := map[string]func(t *testing.T) trace.Stream{
		"generator": func(*testing.T) trace.Stream { return aheadSynth.Stream() },
		"file":      func(t *testing.T) trace.Stream { return record(t, aheadSynth.Stream(), false) },
		"damaged":   func(t *testing.T) trace.Stream { return record(t, aheadSynth.Stream(), true) },
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			src := open(t)
			wantSteps, wantEnds, _ := walk(t, src, "none")
			for _, ahead := range []string{"drained", "racing"} {
				steps, ends, fromHelper := walk(t, src, ahead)
				if ahead == "drained" && fromHelper == 0 {
					t.Errorf("%s: the helper filled no window", ahead)
				}
				for w := range wantSteps {
					if !reflect.DeepEqual(steps[w], wantSteps[w]) {
						t.Fatalf("%s: warp %d walked %d steps that differ from the %d without a helper",
							ahead, w, len(steps[w]), len(wantSteps[w]))
					}
				}
				if !reflect.DeepEqual(ends, wantEnds) {
					t.Fatalf("%s: warps ended %v, without a helper %v", ahead, ends, wantEnds)
				}
			}
			failed := 0
			for _, s := range wantSteps {
				for _, st := range s {
					if st.check != "" {
						t.Fatalf("CheckOp at %d: %s", st.index, st.check)
					}
				}
			}
			for _, e := range wantEnds {
				if e.err != "<nil>" {
					failed++
				}
			}
			if (name == "damaged") != (failed > 0) {
				t.Errorf("%d of %d warps ended with an error", failed, len(wantEnds))
			}
		})
	}
	// The damaged leg's errors are *FormatErrors, wrapped.
	fs := record(t, aheadSynth.Stream(), true)
	pool := trace.NewChunkPool(0)
	pool.Ahead = trace.StartReadAhead()
	defer pool.Ahead.Stop()
	var c trace.Cursor
	c.InitStream(fs, pool, 128, fs.Blocks()-1, 0)
	for !c.Exhausted() {
		pool.Ahead.Flush()
		c.AwaitAhead()
		c.Advance()
	}
	var fe *trace.FormatError
	if !errors.As(c.Err(), &fe) {
		t.Errorf("the last warp of a damaged file ended with %v, want a wrapped *FormatError", c.Err())
	}
	c.Release()
}

// TestFillIsSafeConcurrently: every backend's Fill may run at once for
// different windows, each call with its own chunk (run it under -race),
// from the first Fill on: four goroutines walk every window of every
// warp of a freshly opened instance, each from another warp onwards, so
// they meet whatever lazy state a backend sets up on first use, and
// must read what one serial walk of another instance read.
func TestFillIsSafeConcurrently(t *testing.T) {
	backends := map[string]func(t *testing.T) trace.Stream{
		"generator": func(*testing.T) trace.Stream { return aheadSynth.Stream() },
		"file":      func(t *testing.T) trace.Stream { return record(t, aheadSynth.Stream(), false) },
		"kernel":    func(*testing.T) trace.Stream { return trace.NewKernelStream(aheadSynth.Kernel()) },
		"multi": func(t *testing.T) trace.Stream {
			return trace.NewMultiStream("pair", aheadSynth.Stream(), record(t, aheadSynth.Stream(), false))
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			src, fresh := open(t), open(t)
			var warps [][2]int
			for b := 0; b < src.Blocks(); b++ {
				for w := 0; w < src.Warps(b); w++ {
					warps = append(warps, [2]int{b, w})
				}
			}
			// read walks one warp's windows of src into a fresh copy.
			read := func(src trace.Stream, c *trace.Chunk, b, w int) (instrs []trace.Instr) {
				for start, eof := 0, false; !eof; {
					c.Reset()
					var win []trace.Instr
					win, eof, _ = src.Fill(b, w, start, c)
					if c.Err != nil {
						t.Errorf("block %d warp %d at %d: %v", b, w, start, c.Err)
						return nil
					}
					for _, in := range win {
						in.Addrs = slices.Clone(in.Addrs)
						instrs = append(instrs, in)
					}
					start += len(win)
				}
				return instrs
			}
			want := make([][]trace.Instr, len(warps))
			c := trace.NewChunkPool(0).Get()
			for i, bw := range warps {
				want[i] = read(src, c, bw[0], bw[1])
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c := trace.NewChunkPool(0).Get()
					for j := range warps {
						i := (j + g*len(warps)/4) % len(warps)
						if got := read(fresh, c, warps[i][0], warps[i][1]); !reflect.DeepEqual(got, want[i]) {
							t.Errorf("goroutine %d: block %d warp %d read %d instrs unlike the serial walk's %d",
								g, warps[i][0], warps[i][1], len(got), len(want[i]))
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
