package dlpsim

import (
	"fmt"
	"testing"

	"repro/internal/addr"
)

// The timed machine, probed from outside: kernels small enough that
// every L1D decision is predictable by hand, run through the public
// dlpsim.Run entry point.

// TestOnePCDLPIsGlobalProtection pins Global-Protection as DLP without
// the PC dimension: with every instruction of a CI kernel rewritten to
// one PC, DLP's 128-entry PDPT uses a single entry, whose hit counters
// are the global ones, so DLP must produce Global-Protection's stats
// exactly. KM is the application DLP speeds up most (Fig. 10), CFD one
// it beats the doubled cache on.
func TestOnePCDLPIsGlobalProtection(t *testing.T) {
	if testing.Short() {
		t.Skip("timed CI runs skipped in -short mode")
	}
	for _, app := range []string{"CFD", "KM"} {
		t.Run(app, func(t *testing.T) {
			spec, err := WorkloadByAbbr(app)
			if err != nil {
				t.Fatal(err)
			}
			k := spec.Generate()
			for _, b := range k.Blocks {
				for _, w := range b.Warps {
					for i := range w.Instrs {
						w.Instrs[i].PC = 0x40
					}
				}
			}
			// The two runs share the kernel, as a suite's jobs do.
			var gp *Stats
			gpErr := make(chan error, 1)
			go func() {
				var err error
				gp, err = Run(BaselineConfig(), GlobalProtection, k)
				gpErr <- err
			}()
			dlp, err := Run(BaselineConfig(), DLP, k)
			if err2 := <-gpErr; err == nil {
				err = err2
			}
			if err != nil {
				t.Fatal(err)
			}
			if *dlp != *gp {
				t.Errorf("one-PC %s: DLP and Global-Protection differ\n  DLP: %+v\n  GP:  %+v", app, *dlp, *gp)
			}
			if gp.VTAHits == 0 || gp.L1DBypasses == 0 {
				t.Errorf("one-PC %s never exercised protection: %d VTA hits, %d bypasses", app, gp.VTAHits, gp.L1DBypasses)
			}
		})
	}
}

// probeKernel is one block of one warp that makes passes over lines:
// every load is 32 lanes of one line, and the warp waits for each load
// before it issues the next, so the L1D sees exactly this sequence.
func probeKernel(lines []Addr, passes, lineSize int) *Kernel {
	w := &WarpTrace{}
	for p := 0; p < passes; p++ {
		for _, line := range lines {
			lanes := make([]Addr, 32)
			for i := range lanes {
				lanes[i] = line + Addr(i*lineSize/32)
			}
			w.Instrs = append(w.Instrs, NewLoad(0x40, lanes))
		}
	}
	return &Kernel{Name: "probe", Blocks: []*Block{{Warps: []*WarpTrace{w}}}}
}

// TestL1DGeometryProbe recovers the L1D geometry of Table 1 (and of its
// doubled-associativity variant) from hit and miss counts alone. Eight
// passes over Sets·Ways consecutive lines hit on all but the first pass;
// 32 lines more thrash LRU in every set and hit never. The same holds
// for one set on its own, with lines picked through the cache's hashed
// index: Ways lines fit, Ways+1 do not.
func TestL1DGeometryProbe(t *testing.T) {
	const passes = 8
	for _, kb := range []int{16, 32} {
		cfg, err := ConfigForL1D(kb)
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.L1D
		m, err := addr.NewMapper(g.LineSize, g.Sets, addr.HashIndex)
		if err != nil {
			t.Fatal(err)
		}
		consecutive := func(n int) []Addr {
			out := make([]Addr, n)
			for i := range out {
				out[i] = Addr(i * g.LineSize)
			}
			return out
		}
		sameSet := func(n int) []Addr {
			var out []Addr
			for a := Addr(0); len(out) < n; a += Addr(g.LineSize) {
				if m.Set(a) == 0 {
					out = append(out, a)
				}
			}
			return out
		}
		for _, c := range []struct {
			name  string
			lines []Addr
			hits  int // 0, or all but the first pass
		}{
			{"footprint Sets·Ways", consecutive(g.Lines()), (passes - 1) * g.Lines()},
			{"footprint Sets·Ways+32", consecutive(g.Lines() + 32), 0},
			{"one set, Ways lines", sameSet(g.Ways), (passes - 1) * g.Ways},
			{"one set, Ways+1 lines", sameSet(g.Ways + 1), 0},
		} {
			t.Run(fmt.Sprintf("%dKB/%s", kb, c.name), func(t *testing.T) {
				st, err := Run(cfg, Baseline, probeKernel(c.lines, passes, g.LineSize))
				if err != nil {
					t.Fatal(err)
				}
				loads := passes * len(c.lines)
				if int(st.L1DHits) != c.hits || int(st.L1DMisses) != loads-c.hits {
					t.Errorf("%d lines x %d passes (%d sets, %d ways): %d hits / %d misses, want %d / %d",
						len(c.lines), passes, g.Sets, g.Ways, st.L1DHits, st.L1DMisses, c.hits, loads-c.hits)
				}
			})
		}
	}
}
