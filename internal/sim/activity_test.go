package sim

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/prng"
	"repro/internal/trace"
)

// mixedKernel builds a workload that exercises every activity path the
// O(1) accounting summarizes: long compute latencies (fast-forward
// windows), short compute (busy schedulers), coalesced and scattered
// loads (MSHR merges, multi-request LD/ST drains), stores (write-through
// traffic that outlives its warp), and more blocks than SMs (pending
// block admission mid-run). A last one-warp block of very long computes
// outlives all the others, so the run ends with the whole machine idle
// for longer than any window — the stretches fast-forward jumps.
func mixedKernel(seed uint64) *trace.Kernel {
	rng := prng.New(seed)
	k := &trace.Kernel{Name: "mixed-activity"}
	for b := 0; b < 20; b++ {
		blk := &trace.Block{}
		for w := 0; w < 3; w++ {
			wt := &trace.WarpTrace{}
			for i := 0; i < 24; i++ {
				pc := uint32(rng.Intn(12))
				switch rng.Intn(6) {
				case 0:
					// Long-latency compute: the whole SM may go idle here,
					// which is what arms the fast-forward path.
					wt.Instrs = append(wt.Instrs, trace.NewCompute(pc, 64+rng.Intn(256), 32))
				case 1:
					wt.Instrs = append(wt.Instrs, trace.NewCompute(pc, 1+rng.Intn(6), 1+rng.Intn(32)))
				case 2:
					wt.Instrs = append(wt.Instrs, trace.NewStore(pc, randAddrs(rng, 1+rng.Intn(32))))
				default:
					wt.Instrs = append(wt.Instrs, trace.NewLoad(pc, randAddrs(rng, 1+rng.Intn(32))))
				}
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	straggler := &trace.WarpTrace{}
	for i := 0; i < 4; i++ {
		straggler.Instrs = append(straggler.Instrs, trace.NewCompute(uint32(i), 2000, 32))
	}
	k.Blocks = append(k.Blocks, &trace.Block{Warps: []*trace.WarpTrace{straggler}})
	return k
}

// activityConfigs are the scheduler/throttle variants whose interaction
// with the sleep-bound bookkeeping differs.
func activityConfigs() map[string]*config.Config {
	gto := config.Baseline()
	lrr := config.Baseline()
	lrr.Scheduler = config.SchedLRR
	throttled := config.Baseline()
	throttled.MaxActiveWarps = 4
	return map[string]*config.Config{"gto": gto, "lrr": lrr, "warp-limit": throttled}
}

// TestActivityAccountingEveryCycle re-derives the engine's O(1) activity
// accounting from first principles at every window end of a mixed
// workload: the liveWarps counter and the SMs' slot-indexed scheduling
// arrays (blocked/finished bits, ages) vs slot sweeps, scheduler sleep
// bounds vs actual issuability, parked LD/ST and L2 heads vs a replay,
// and counter-form quiescence vs the deep sweep. It runs twice: on
// one-cycle windows, where the hook fires cycle by cycle, and on the
// production windows, where components skip locally and wake bounds
// carry from one window into the next. This is the unsampled version of
// what SelfCheck verifies every 2048 cycles in production runs —
// including the fault-injection suites, which run with SelfCheck enabled.
func TestActivityAccountingEveryCycle(t *testing.T) {
	for name, cfg := range activityConfigs() {
		for _, policy := range []config.Policy{config.PolicyBaseline, config.PolicyDLP} {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				for _, unit := range []bool{true, false} {
					e, err := New(cfg, policy, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if unit {
						e.quantum = 1
					}
					checked := 0
					e.windowHook = func(t0, t1, active uint64) {
						if err := e.checkActivity(); err != nil {
							t.Fatalf("quantum %d, window %d..%d (active=%#x): %v", e.quantum, t0, t1, active, err)
						}
						for i, p := range e.parts {
							if err := p.CheckPark(); err != nil {
								t.Fatalf("quantum %d, window %d..%d, partition %d: %v", e.quantum, t0, t1, i, err)
							}
						}
						checked++
					}
					st, err := e.Run(context.Background(), mixedKernel(7))
					if err != nil {
						t.Fatal(err)
					}
					if err := st.CheckConservation(); err != nil {
						t.Error(err)
					}
					if checked < 100 {
						t.Errorf("quantum %d: only %d windows observed; kernel too small to prove anything", e.quantum, checked)
					}
				}
			})
		}
	}
}

// TestFastForwardDifferential proves fast-forwarding is unobservable:
// the same kernel run with the optimization disabled (every component
// visited on every cycle) produces bit-identical statistics, while the
// enabled run demonstrably jumps over cycles. SelfCheck is on for both legs, so the
// sampled sweeps also run on both sides of the comparison.
func TestFastForwardDifferential(t *testing.T) {
	for name, cfg := range activityConfigs() {
		for _, policy := range []config.Policy{config.PolicyBaseline, config.PolicyDLP} {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				run := func(disableFF bool) (*Engine, uint64, interface{}) {
					e, err := New(cfg, policy, Options{SelfCheck: true})
					if err != nil {
						t.Fatal(err)
					}
					e.disableFastForward = disableFF
					var stepped uint64
					e.windowHook = func(t0, t1, _ uint64) { stepped += t1 - t0 + 1 }
					st, err := e.Run(context.Background(), mixedKernel(11))
					if err != nil {
						t.Fatal(err)
					}
					return e, stepped, *st
				}
				_, fullSteps, fullStats := run(true)
				_, ffSteps, ffStats := run(false)
				if fullStats != ffStats {
					t.Errorf("fast-forward changed results:\nfull %+v\n  ff %+v", fullStats, ffStats)
				}
				if ffSteps >= fullSteps {
					t.Errorf("fast-forward stepped %d cycles, full run %d: nothing was skipped",
						ffSteps, fullSteps)
				}
			})
		}
	}
}
