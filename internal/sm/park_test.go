package sm

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/prng"
)

// memoryModel answers an SM's fetches after a random delay and swallows
// its stores; one packet leaves the L1D every period cycles.
type memoryModel struct {
	rng      *prng.Source
	period   uint64
	inFlight []parkFlight
}

type parkFlight struct {
	due uint64
	req *mem.Request
}

// deliver hands s the responses due by now and reports whether any were.
func (m *memoryModel) deliver(s *SM, now uint64) bool {
	any := false
	rest := m.inFlight[:0]
	for _, f := range m.inFlight {
		if f.due <= now {
			s.l1d.OnResponse(f.req)
			any = true
		} else {
			rest = append(rest, f)
		}
	}
	m.inFlight = rest
	return any
}

func (m *memoryModel) drain(s *SM, now uint64) {
	if now%m.period != 0 {
		return
	}
	if out := s.l1d.PopOutgoing(); out != nil && !out.Store {
		m.inFlight = append(m.inFlight, parkFlight{due: now + 1 + uint64(m.rng.Intn(90)), req: out})
	}
}

// TestParkedStallsMatchReplay is the park's differential. Two SMs run
// the same kernel against the same memory on a cache starved of MSHRs,
// miss-queue slots and ways (and, at period 3, drained slower than it
// fills, so the one-deep miss queue is what it stalls on), and the LD/ST
// head stalls most of the time.
// The reference is forced to replay its stalled head every cycle, as the
// blocked pipeline register does; the other parks, and — like the
// engine's window loop — is not even ticked between its wake bound and
// the next response. After every cycle, with the parked SM's credits
// flushed, both must show the same counters, L1DStalls included, and
// the parked SM's activity accounting must re-derive.
func TestParkedStallsMatchReplay(t *testing.T) {
	for _, pol := range []config.Policy{config.PolicyBaseline, config.PolicyDLP, config.PolicyCCWS} {
		for _, v := range []struct{ mshrs, period int }{{1, 1}, {2, 1}, {3, 1}, {8, 3}} {
			mshrs := v.mshrs
			t.Run(fmt.Sprintf("%s/mshrs%d/period%d", pol, mshrs, v.period), func(t *testing.T) {
				cfg := config.Baseline()
				cfg.MaxWarpsPerSM = 12
				cfg.L1D.Sets, cfg.L1D.Ways = 2, 2
				cfg.L1DMSHRs, cfg.L1DMSHRMerges, cfg.L1DMissQueue = mshrs, 2, 1
				cfg.CCWSByCycles, cfg.CCWSProtectCycles = true, 150
				k := pickKernel(prng.New(uint64(mshrs)), cfg.MaxWarpsPerSM)

				ref, parked := New(cfg, 0, pol, nil), New(cfg, 0, pol, nil)
				for _, b := range k.Blocks {
					ref.AssignBlock(b)
					parked.AssignBlock(b)
				}
				refMem := &memoryModel{rng: prng.New(99), period: uint64(v.period)}
				parkMem := &memoryModel{rng: prng.New(99), period: uint64(v.period)}
				var wake, slept uint64
				for now := uint64(1); !ref.Done() || len(refMem.inFlight) > 0; now++ {
					if now > 2_000_000 {
						t.Fatalf("not done after %d cycles", now)
					}
					refMem.deliver(ref, now)
					ref.stalled = false // the blocked register replays
					ref.Tick(now)
					refMem.drain(ref, now)

					if parkMem.deliver(parked, now) || now >= wake {
						parked.Tick(now)
						parkMem.drain(parked, now)
						wake = now + 1
						if w, ok := parked.NextWake(now); ok {
							wake = max(w, now+1)
						}
					} else {
						slept++
					}
					parked.FlushStalls(now)

					if *parked.st != *ref.st || *parked.l1d.Stats() != *ref.l1d.Stats() {
						t.Fatalf("cycle %d: parked SM diverged from the replaying one\nreplay %+v\nparked %+v",
							now, *ref.l1d.Stats(), *parked.l1d.Stats())
					}
					if err := parked.CheckActivity(); err != nil {
						t.Fatalf("cycle %d: %v", now, err)
					}
				}
				if !parked.Done() || len(parkMem.inFlight) > 0 {
					t.Fatal("the replaying SM drained but the parked one did not")
				}
				stalls := ref.l1d.Stats().L1DStalls
				if stalls == 0 || slept == 0 {
					t.Fatalf("%d stall cycles, %d ticks skipped: the configuration proves nothing", stalls, slept)
				}
				t.Logf("%d stall cycles, %d of %d ticks skipped", stalls, slept, ref.now)
			})
		}
	}
}

// TestParkCheckCatchesAWrongPark hand-mutates a parked SM the way a
// missed epoch bump would leave it — cache state moved on, park token
// unchanged — and requires CheckActivity to notice both symptoms.
func TestParkCheckCatchesAWrongPark(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxWarpsPerSM = 12
	cfg.L1D.Sets, cfg.L1D.Ways = 2, 2
	cfg.L1DMSHRs, cfg.L1DMSHRMerges, cfg.L1DMissQueue = 1, 2, 1
	k := pickKernel(prng.New(1), cfg.MaxWarpsPerSM)
	s := New(cfg, 0, config.PolicyBaseline, nil)
	for _, b := range k.Blocks {
		s.AssignBlock(b)
	}
	var held []*mem.Request
	now := uint64(0)
	for !s.Stalled() {
		now++
		if now > 10000 {
			t.Fatal("the head never stalled")
		}
		s.Tick(now)
		if out := s.l1d.PopOutgoing(); out != nil && !out.Store {
			held = append(held, out)
		}
	}
	if err := s.CheckActivity(); err != nil {
		t.Fatalf("a correct park fails its own check: %v", err)
	}

	s.l1d.CreditStalls(1)
	if err := s.CheckActivity(); err == nil {
		t.Error("a stall credited twice went unnoticed")
	}
	s.stallBase++ // take the stray credit back out of the comparison

	// Answer everything outstanding, then put the token back: the cache
	// can now accept the head, but the SM still believes in its park.
	for _, r := range held {
		s.l1d.OnResponse(r)
	}
	for out := s.l1d.PopOutgoing(); out != nil; out = s.l1d.PopOutgoing() {
		if !out.Store {
			s.l1d.OnResponse(out)
		}
	}
	s.stallEpoch = s.l1d.Epoch()
	if err := s.CheckActivity(); err == nil {
		t.Error("a head parked on a cache that would accept it went unnoticed")
	}
}
