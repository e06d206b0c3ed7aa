package dlpsim

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/rdd"
	"repro/internal/trace"
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

// oneWarpPerSM cuts app down to a kernel whose L1Ds have at most one
// access in flight: its first blocks blocks (no more than the SMs, so
// one per SM), each with its first eight warps joined into one warp, and
// every memory instruction narrowed to its first lane's line (every lane
// keeps its slot, so the instruction counts its lanes as before).
func oneWarpPerSM(t *testing.T, app string, blocks int) *Kernel {
	t.Helper()
	spec, err := WorkloadByAbbr(app)
	if err != nil {
		t.Fatal(err)
	}
	src := spec.Generate()
	k := &Kernel{Name: app + "-one-warp"}
	for _, b := range src.Blocks[:min(blocks, len(src.Blocks))] {
		w := &WarpTrace{}
		for _, sw := range b.Warps[:min(8, len(b.Warps))] {
			for _, in := range sw.Instrs {
				if in.Kind != trace.Compute {
					lanes := make([]Addr, len(in.Addrs))
					for i := range lanes {
						lanes[i] = in.Addrs[0]
					}
					in.Addrs = lanes
				}
				w.Instrs = append(w.Instrs, in)
			}
		}
		k.Blocks = append(k.Blocks, &Block{Warps: []*WarpTrace{w}})
	}
	return k
}

// l1dCounters are the ten L1D counters of a run, named by l1dCounterNames.
func l1dCounters(s *Stats) [10]uint64 {
	return [10]uint64{s.L1DAccesses, s.L1DHits, s.L1DMisses, s.L1DBypasses, s.L1DEvictions,
		s.L1DStalls, s.L1DTraffic, s.VTAHits, s.StoreAccesses, s.L1DCompulsory}
}

var l1dCounterNames = [10]string{"L1DAccesses", "L1DHits", "L1DMisses", "L1DBypasses", "L1DEvictions",
	"L1DStalls", "L1DTraffic", "VTAHits", "StoreAccesses", "L1DCompulsory"}

// TestReplayMatchesTheTimedL1D ties the timed L1D path to internal/rdd's
// L1D replay, which has no timing in it. With one warp per SM and one
// line per memory instruction every access waits for the one before it,
// so each timed L1D sees exactly the replay's stream — an instruction's
// lanes noted at issue, then its one access — and all ten L1D counters,
// summed over the SMs, must be equal under every registered scheme, with
// no stall. Twelve applications on all 16 SMs; -short keeps four SMs of
// SC and SRAD, CS apps whose sampling periods close at the instruction
// cap (ReusePredictor tells a replay that stops noting instructions
// apart on both), and of MM, whose DLP and Global-Protection runs hit in
// the victim tag array.
func TestReplayMatchesTheTimedL1D(t *testing.T) {
	cfg := BaselineConfig()
	apps, blocks := []string{"CFD", "KM", "BFS", "MM", "SC", "BT", "HG", "STEN", "GEMM", "SRAD", "NW", "PVR"}, cfg.NumSMs
	if testing.Short() {
		apps, blocks = []string{"SC", "SRAD", "MM"}, 4
	}
	for _, app := range apps {
		t.Run(app, func(t *testing.T) {
			k := oneWarpPerSM(t, app, blocks)
			for _, pol := range Policies() {
				timed, err := Run(cfg, pol, k)
				if err != nil {
					t.Fatal(err)
				}
				var replayed [10]uint64
				for _, blocks := range rdd.PerSM(k, cfg.NumSMs) {
					r := rdd.NewL1DReplay(cfg, pol)
					if err := r.Replay(blocks, func() bool { return true }); err != nil {
						t.Fatalf("%s: %v", pol, err)
					}
					for i, v := range l1dCounters(r.Stats()) {
						replayed[i] += v
					}
				}
				got := l1dCounters(timed)
				for i, name := range l1dCounterNames {
					if got[i] != replayed[i] {
						t.Errorf("%s: %s timed %d, replayed %d", pol, name, got[i], replayed[i])
					}
				}
				if timed.L1DStalls != 0 || timed.L1DAccesses == 0 {
					t.Errorf("%s: %d stalls over %d accesses; the kernel has more than one access in flight, or none",
						pol, timed.L1DStalls, timed.L1DAccesses)
				}
				if app == "MM" && (pol == DLP || pol == GlobalProtection) && timed.VTAHits == 0 {
					t.Errorf("%s: no VTA hits on MM", pol)
				}
			}
		})
	}
}
