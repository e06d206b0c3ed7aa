package core

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/prng"
)

// harness wires an L1D to a recording delivery sink and a perfect memory
// that can echo outgoing requests back as responses on demand.
type harness struct {
	c         *L1D
	delivered []*mem.Request
	nextID    uint64
}

func newHarness(policy config.Policy, cfg *config.Config) *harness {
	h := &harness{}
	if cfg == nil {
		cfg = config.Baseline()
	}
	h.c = NewL1D(cfg, policy, func(r *mem.Request) { h.delivered = append(h.delivered, r) })
	return h
}

func (h *harness) load(a addr.Addr, pc uint32) mem.AccessOutcome {
	h.nextID++
	return h.c.Access(&mem.Request{
		ID: h.nextID, Addr: a, PC: pc, InsnID: addr.HashPC(pc),
	})
}

func (h *harness) store(a addr.Addr, pc uint32) mem.AccessOutcome {
	h.nextID++
	return h.c.Access(&mem.Request{
		ID: h.nextID, Addr: a, PC: pc, InsnID: addr.HashPC(pc), Store: true,
	})
}

// drainMemory pops every outgoing packet and immediately responds to
// loads (stores are absorbed).
func (h *harness) drainMemory() int {
	n := 0
	for {
		r := h.c.PopOutgoing()
		if r == nil {
			return n
		}
		n++
		if !r.Store {
			h.c.OnResponse(r)
		}
	}
}

func (h *harness) tick(now uint64) { h.c.Tick(now) }

func lineAddr(i int) addr.Addr { return addr.Addr(i * 128) }

func TestMissThenFillThenHit(t *testing.T) {
	h := newHarness(config.PolicyBaseline, nil)
	a := lineAddr(1)
	if got := h.load(a, 0); got != mem.OutcomeMiss {
		t.Fatalf("first access = %v, want miss", got)
	}
	if h.c.Stats().L1DMisses != 1 || h.c.Stats().L1DCompulsory != 1 {
		t.Errorf("miss/compulsory = %d/%d", h.c.Stats().L1DMisses, h.c.Stats().L1DCompulsory)
	}
	if n := h.drainMemory(); n != 1 {
		t.Fatalf("outgoing packets = %d", n)
	}
	if len(h.delivered) != 1 {
		t.Fatalf("delivered = %d", len(h.delivered))
	}
	if got := h.load(a, 0); got != mem.OutcomeHit {
		t.Fatalf("second access = %v, want hit", got)
	}
	h.tick(2) // hit latency 1 elapses
	if len(h.delivered) != 2 {
		t.Errorf("hit not delivered: %d", len(h.delivered))
	}
	st := h.c.Stats()
	if st.L1DHits != 1 || st.L1DAccesses != 2 || st.L1DTraffic != 2 {
		t.Errorf("hits/accesses/traffic = %d/%d/%d", st.L1DHits, st.L1DAccesses, st.L1DTraffic)
	}
	if err := st.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestMSHRMergeDeliversAllWaiters(t *testing.T) {
	h := newHarness(config.PolicyBaseline, nil)
	a := lineAddr(2)
	if h.load(a, 0) != mem.OutcomeMiss {
		t.Fatal("first miss")
	}
	// Second access to the in-flight line merges.
	if got := h.load(a, 1); got != mem.OutcomeMiss {
		t.Fatalf("merge access = %v", got)
	}
	if h.c.Stats().L1DMisses != 2 {
		t.Errorf("misses = %d, want 2", h.c.Stats().L1DMisses)
	}
	// One packet only goes to memory; both requests are delivered.
	if n := h.drainMemory(); n != 1 {
		t.Errorf("outgoing = %d, want 1 (merged)", n)
	}
	if len(h.delivered) != 2 {
		t.Errorf("delivered = %d, want 2", len(h.delivered))
	}
}

func TestMergeCapacityStallsBaseline(t *testing.T) {
	cfg := config.Baseline()
	cfg.L1DMSHRMerges = 2
	h := newHarness(config.PolicyBaseline, cfg)
	a := lineAddr(3)
	h.load(a, 0)
	h.load(a, 1)
	if got := h.load(a, 2); got != mem.OutcomeStall {
		t.Fatalf("over-merge = %v, want stall", got)
	}
	if h.c.Stats().L1DStalls != 1 {
		t.Errorf("stalls = %d", h.c.Stats().L1DStalls)
	}
}

func TestMergeCapacityBypassesUnderStallBypass(t *testing.T) {
	cfg := config.Baseline()
	cfg.L1DMSHRMerges = 2
	h := newHarness(config.PolicyStallBypass, cfg)
	a := lineAddr(3)
	h.load(a, 0)
	h.load(a, 1)
	if got := h.load(a, 2); got != mem.OutcomeBypass {
		t.Fatalf("over-merge = %v, want bypass", got)
	}
}

func TestMSHRFullStallsBaselineAndBypassesSB(t *testing.T) {
	cfg := config.Baseline()
	cfg.L1DMSHRs = 2
	cfg.L1DMissQueue = 16
	for _, tc := range []struct {
		policy config.Policy
		want   mem.AccessOutcome
	}{
		{config.PolicyBaseline, mem.OutcomeStall},
		{config.PolicyStallBypass, mem.OutcomeBypass},
		{config.PolicyGlobalProtection, mem.OutcomeStall},
		{config.PolicyDLP, mem.OutcomeStall},
	} {
		h := newHarness(tc.policy, cfg)
		h.load(lineAddr(1), 0)
		h.load(lineAddr(2), 0)
		if got := h.load(lineAddr(3), 0); got != tc.want {
			t.Errorf("%v: MSHR-full access = %v, want %v", tc.policy, got, tc.want)
		}
	}
}

func TestMissQueueFullStalls(t *testing.T) {
	cfg := config.Baseline()
	cfg.L1DMissQueue = 1
	h := newHarness(config.PolicyBaseline, cfg)
	h.load(lineAddr(1), 0)
	if got := h.load(lineAddr(2), 0); got != mem.OutcomeStall {
		t.Fatalf("missQ-full access = %v, want stall", got)
	}
}

// fullyReservedSet drives cfg.L1D.Ways misses into one set without
// draining memory, so every way is reserved. Returns an address mapping
// to the same set. The caller needs sets whose addresses we can predict:
// use a linear-index config to make set selection trivial.
func linearCfg() *config.Config {
	cfg := config.Baseline()
	cfg.L1D.Hashed = false
	return cfg
}

func sameSetAddrs(cfg *config.Config, n int) []addr.Addr {
	out := make([]addr.Addr, n)
	for i := range out {
		// Same set under linear indexing: stride = sets * lineSize.
		out[i] = addr.Addr(i * cfg.L1D.Sets * cfg.L1D.LineSize)
	}
	return out
}

func TestFullyReservedSetStallsBaselineBypassesOthers(t *testing.T) {
	for _, tc := range []struct {
		policy config.Policy
		want   mem.AccessOutcome
	}{
		{config.PolicyBaseline, mem.OutcomeStall},
		{config.PolicyStallBypass, mem.OutcomeBypass},
		{config.PolicyGlobalProtection, mem.OutcomeBypass},
		{config.PolicyDLP, mem.OutcomeBypass},
	} {
		cfg := linearCfg()
		h := newHarness(tc.policy, cfg)
		as := sameSetAddrs(cfg, cfg.L1D.Ways+1)
		for i := 0; i < cfg.L1D.Ways; i++ {
			if got := h.load(as[i], 0); got != mem.OutcomeMiss {
				t.Fatalf("%v: setup miss %d = %v", tc.policy, i, got)
			}
		}
		if got := h.load(as[cfg.L1D.Ways], 0); got != tc.want {
			t.Errorf("%v: access to fully reserved set = %v, want %v", tc.policy, got, tc.want)
		}
	}
}

func TestBypassedRequestDeliveredWithoutFill(t *testing.T) {
	cfg := linearCfg()
	h := newHarness(config.PolicyStallBypass, cfg)
	as := sameSetAddrs(cfg, cfg.L1D.Ways+1)
	for i := 0; i < cfg.L1D.Ways; i++ {
		h.load(as[i], 0)
	}
	extra := as[cfg.L1D.Ways]
	if h.load(extra, 0) != mem.OutcomeBypass {
		t.Fatal("setup bypass failed")
	}
	h.drainMemory()
	// All Ways+1 requests delivered...
	if len(h.delivered) != cfg.L1D.Ways+1 {
		t.Fatalf("delivered = %d", len(h.delivered))
	}
	// ...but the bypassed line is not resident.
	if got := h.load(extra, 0); got == mem.OutcomeHit {
		t.Error("bypassed line was filled into the cache")
	}
	if err := h.c.Stats().CheckConservation(); err != nil {
		t.Error(err)
	}
}

// TestDLPProtectedSetBypasses builds the paper's §4.1.1 situation: all
// lines in a set valid and protected (PL > 0), so an incoming miss must
// bypass rather than evict, and repeated bypasses eventually drain PL and
// release the set.
func TestDLPProtectedSetBypasses(t *testing.T) {
	cfg := linearCfg()
	h := newHarness(config.PolicyDLP, cfg)
	as := sameSetAddrs(cfg, cfg.L1D.Ways+1)
	// Fill the set.
	for i := 0; i < cfg.L1D.Ways; i++ {
		h.load(as[i], 0)
	}
	h.drainMemory()
	// Manually protect every line (simulating learned PDs).
	set := h.c.mapper.Set(as[0])
	for w := range h.c.ta.Set(set) {
		h.c.ta.Set(set)[w].PL = 3
	}
	extra := as[cfg.L1D.Ways]
	if got := h.load(extra, 0); got != mem.OutcomeBypass {
		t.Fatalf("access to protected set = %v, want bypass", got)
	}
	// Each bypass decrements every PL by 1; after two more queries the
	// set opens up (PL 3 -> 0) and the next miss allocates.
	h.load(extra, 0)
	h.load(extra, 0)
	if got := h.load(extra, 0); got != mem.OutcomeMiss {
		t.Errorf("access after PL drained = %v, want miss (set released)", got)
	}
	if h.c.Stats().L1DEvictions != 1 {
		t.Errorf("evictions = %d, want 1", h.c.Stats().L1DEvictions)
	}
}

// TestBaselineIgnoresProtection: baseline evicts LRU lines regardless of
// PL (its lines never gain PL in the first place).
func TestBaselineEvictsLRU(t *testing.T) {
	cfg := linearCfg()
	h := newHarness(config.PolicyBaseline, cfg)
	as := sameSetAddrs(cfg, cfg.L1D.Ways+1)
	for i := 0; i < cfg.L1D.Ways; i++ {
		h.load(as[i], 0)
	}
	h.drainMemory()
	if got := h.load(as[cfg.L1D.Ways], 0); got != mem.OutcomeMiss {
		t.Fatalf("eviction miss = %v", got)
	}
	if h.c.Stats().L1DEvictions != 1 {
		t.Errorf("evictions = %d", h.c.Stats().L1DEvictions)
	}
	h.drainMemory()
	// as[0] was LRU and must be gone.
	if got := h.load(as[0], 0); got == mem.OutcomeHit {
		t.Error("LRU line still resident after eviction")
	}
}

// TestVTACreditsOnRefetch: evicting a line and re-requesting it registers
// a VTA hit credited to the instruction that owned the line.
func TestVTACreditsOnRefetch(t *testing.T) {
	cfg := linearCfg()
	h := newHarness(config.PolicyDLP, cfg)
	as := sameSetAddrs(cfg, cfg.L1D.Ways+1)
	for i := 0; i <= cfg.L1D.Ways; i++ { // last one evicts as[0]
		h.load(as[i], 5)
		h.drainMemory()
	}
	if h.c.Stats().VTAHits != 0 {
		t.Fatalf("premature VTA hits: %d", h.c.Stats().VTAHits)
	}
	// Refetch the evicted line: VTA hit.
	h.load(as[0], 5)
	if h.c.Stats().VTAHits != 1 {
		t.Errorf("VTA hits = %d, want 1", h.c.Stats().VTAHits)
	}
	_, vta := h.c.PDPT().GlobalHits()
	if vta != 1 {
		t.Errorf("PDPT global VTA hits = %d, want 1", vta)
	}
}

// TestHitAttributionChain reproduces the §4.1.1 example: a line brought
// in by insn 0 and then hit by insns 1, 2, 3 credits hits to 0, 1, 2.
func TestHitAttributionChain(t *testing.T) {
	h := newHarness(config.PolicyDLP, nil)
	a := lineAddr(7)
	h.load(a, 0)
	h.drainMemory()
	credits := make([]uint64, 4)
	for step, pc := range []uint32{1, 2, 3} {
		before := make([]uint64, 4)
		for i := range before {
			before[i], _ = h.c.PDPT().EntryHits(addr.HashPC(uint32(i)))
		}
		if got := h.load(a, pc); got != mem.OutcomeHit {
			t.Fatalf("step %d: %v", step, got)
		}
		for i := range credits {
			after, _ := h.c.PDPT().EntryHits(addr.HashPC(uint32(i)))
			credits[i] = after - before[i]
		}
		wantCredited := pc - 1
		for i := range credits {
			want := uint64(0)
			if uint32(i) == wantCredited {
				want = 1
			}
			if credits[i] != want {
				t.Errorf("step %d: insn %d credited %d, want %d", step, i, credits[i], want)
			}
		}
	}
}

func TestStoreWriteEvictsAndForwards(t *testing.T) {
	h := newHarness(config.PolicyBaseline, nil)
	a := lineAddr(9)
	h.load(a, 0)
	h.drainMemory()
	if got := h.store(a, 1); got != mem.OutcomeBypass {
		t.Fatalf("store outcome = %v", got)
	}
	if h.c.Stats().StoreAccesses != 1 {
		t.Errorf("StoreAccesses = %d", h.c.Stats().StoreAccesses)
	}
	// Store invalidated the line (write-evict).
	if got := h.load(a, 0); got == mem.OutcomeHit {
		t.Error("line survived a store hit")
	}
	// The store packet travels to memory.
	found := false
	for {
		r := h.c.PopOutgoing()
		if r == nil {
			break
		}
		if r.Store {
			found = true
		} else {
			h.c.OnResponse(r)
		}
	}
	if !found {
		t.Error("store packet never reached the outgoing port")
	}
}

func TestHitLatencyRespected(t *testing.T) {
	cfg := config.Baseline()
	cfg.L1DHitLatency = 5
	h := newHarness(config.PolicyBaseline, cfg)
	a := lineAddr(4)
	h.load(a, 0)
	h.drainMemory()
	h.delivered = nil
	h.tick(10)
	h.load(a, 0) // hit at now=10, ready at 15
	h.tick(14)
	if len(h.delivered) != 0 {
		t.Fatal("hit delivered before its latency elapsed")
	}
	h.tick(15)
	if len(h.delivered) != 1 {
		t.Error("hit not delivered at ready time")
	}
}

func TestPendingReflectsOutstandingWork(t *testing.T) {
	h := newHarness(config.PolicyBaseline, nil)
	if h.c.Pending() {
		t.Error("fresh cache pending")
	}
	h.load(lineAddr(1), 0)
	if !h.c.Pending() {
		t.Error("miss outstanding but not pending")
	}
	h.drainMemory()
	if h.c.Pending() {
		t.Error("still pending after drain")
	}
	h.load(lineAddr(1), 0) // hit queued
	if !h.c.Pending() {
		t.Error("queued hit response not pending")
	}
	h.tick(5)
	if h.c.Pending() {
		t.Error("pending after hit delivery")
	}
}

func TestResponseForUnknownLinePanics(t *testing.T) {
	h := newHarness(config.PolicyBaseline, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for orphan response")
		}
	}()
	h.c.OnResponse(&mem.Request{Addr: lineAddr(1)})
}

func TestStoreResponsePanics(t *testing.T) {
	h := newHarness(config.PolicyBaseline, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for store response")
		}
	}()
	h.c.OnResponse(&mem.Request{Addr: lineAddr(1), Store: true})
}

// TestConservationProperty: under random access streams and random drain
// points, every policy maintains hits+misses+bypasses == accesses, and
// delivered responses eventually match non-stalled load count.
func TestConservationProperty(t *testing.T) {
	policies := policy.All()
	f := func(ops []uint16, policySel uint8) bool {
		cfg := config.Baseline()
		cfg.L1DMSHRs = 4
		cfg.L1DMissQueue = 4
		h := newHarness(policies[int(policySel)%len(policies)], cfg)
		accepted := 0
		for i, op := range ops {
			a := lineAddr(int(op % 256))
			pc := uint32(op % 7)
			if op%11 == 0 {
				h.store(a, pc)
				continue
			}
			if out := h.load(a, pc); out != mem.OutcomeStall {
				accepted++
			}
			if op%5 == 0 {
				h.drainMemory()
			}
			h.tick(uint64(i + 2))
		}
		h.drainMemory()
		h.tick(1 << 40)
		if err := h.c.Stats().CheckConservation(); err != nil {
			return false
		}
		return len(h.delivered) == accepted && !h.c.Pending()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPLBoundsProperty: protected-life values never leave [0, MaxPD]
// under random DLP traffic.
func TestPLBoundsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := config.Baseline()
		h := newHarness(config.PolicyDLP, cfg)
		for i, op := range ops {
			h.load(lineAddr(int(op%512)), uint32(op%13))
			if op%3 == 0 {
				h.drainMemory()
			}
			h.tick(uint64(i + 2))
		}
		for s := 0; s < h.c.ta.NumSets(); s++ {
			for _, ln := range h.c.ta.Set(s) {
				if ln.PL < 0 || ln.PL > cfg.MaxPD() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBypassKeepsVTAEvidence: a bypassed access to a line present in the
// VTA credits the stored instruction without consuming the entry, so the
// reuse evidence keeps flowing while the line stays out of the cache.
func TestBypassKeepsVTAEvidence(t *testing.T) {
	cfg := linearCfg()
	h := newHarness(config.PolicyDLP, cfg)
	as := sameSetAddrs(cfg, cfg.L1D.Ways+2)
	// Fill the set, then evict as[0] into the VTA.
	for i := 0; i <= cfg.L1D.Ways; i++ {
		h.load(as[i], 3)
		h.drainMemory()
	}
	// Protect every resident line so the next misses bypass.
	set := h.c.mapper.Set(as[0])
	for w := range h.c.ta.Set(set) {
		h.c.ta.Set(set)[w].PL = 10
	}
	before := h.c.Stats().VTAHits
	for i := 0; i < 3; i++ {
		if got := h.load(as[0], 3); got != mem.OutcomeBypass {
			t.Fatalf("access %d = %v, want bypass", i, got)
		}
	}
	if got := h.c.Stats().VTAHits - before; got != 3 {
		t.Errorf("VTA hits during bypasses = %d, want 3 (entry not consumed)", got)
	}
}

// TestGlobalProtectionProtectsEverything: under GP, lines brought in by
// any instruction receive the single global PD — including instructions
// that never show reuse (the over-protection §3.3 warns about).
func TestGlobalProtectionProtectsEverything(t *testing.T) {
	cfg := linearCfg()
	h := newHarness(config.PolicyGlobalProtection, cfg)
	// Drive VTA evidence with instruction 1 only.
	as := sameSetAddrs(cfg, cfg.L1D.Ways+1)
	for rep := 0; rep < 60; rep++ {
		for _, a := range as {
			h.load(a, 1)
			h.drainMemory()
		}
	}
	if pd := h.c.PDPT().PD(0); pd == 0 {
		t.Fatal("global PD did not rise")
	}
	// A brand-new instruction's line still gets the global PD at fill.
	// Use an untouched set so the access allocates rather than bypasses.
	novel := addr.Addr(5 * cfg.L1D.LineSize)
	h.load(novel, 99)
	h.drainMemory()
	set, way, res := h.c.ta.Probe(novel)
	if res != cache.ProbeHit {
		t.Fatalf("novel line not resident: %v", res)
	}
	if pl := h.c.ta.Set(set)[way].PL; pl == 0 {
		t.Error("GP left a fresh instruction's line unprotected; it must over-protect")
	}
}

// TestDLPDoesNotProtectUnseenInstruction: the contrast with GP — under
// DLP a fresh instruction with no VTA evidence fills with PL 0.
func TestDLPDoesNotProtectUnseenInstruction(t *testing.T) {
	cfg := linearCfg()
	h := newHarness(config.PolicyDLP, cfg)
	as := sameSetAddrs(cfg, cfg.L1D.Ways+1)
	for rep := 0; rep < 60; rep++ {
		for _, a := range as {
			h.load(a, 1)
			h.drainMemory()
		}
	}
	if pd := h.c.PDPT().PD(addr.HashPC(1)); pd == 0 {
		t.Fatal("per-PC PD for the reusing instruction did not rise")
	}
	novel := addr.Addr(5 * cfg.L1D.LineSize)
	h.load(novel, 99)
	h.drainMemory()
	set, way, res := h.c.ta.Probe(novel)
	if res != cache.ProbeHit {
		t.Fatalf("novel line not resident: %v", res)
	}
	if pl := h.c.ta.Set(set)[way].PL; pl != 0 {
		t.Errorf("DLP protected an instruction with no evidence: PL=%d", pl)
	}
}

// TestWouldStallMatchesAccess holds the self-checks' reference to the
// access path it stands in for: on a cache starved of MSHRs, miss-queue
// slots and ways, under every registered policy, WouldStall predicts
// every access's stall-or-accept outcome — and a stalled access leaves
// the park token alone, while every response and every miss-queue pop
// moves it.
func TestWouldStallMatchesAccess(t *testing.T) {
	for _, pol := range policy.All() {
		cfg := config.Baseline()
		cfg.L1D.Sets, cfg.L1D.Ways = 2, 2
		cfg.L1DMSHRs, cfg.L1DMSHRMerges, cfg.L1DMissQueue = 2, 1, 1
		h := newHarness(pol, cfg)
		rng := prng.New(11)
		var inFlight []*mem.Request
		stalls := 0
		for now := uint64(1); now < 20000; now++ {
			h.tick(now)
			if len(inFlight) > 0 && rng.Intn(6) == 0 {
				before := h.c.Epoch()
				h.c.OnResponse(inFlight[0])
				if bypassed := inFlight[0].Bypass; !bypassed && h.c.Epoch() == before {
					t.Fatalf("%s: a fill left the park token unchanged", pol)
				}
				inFlight = inFlight[1:]
			}
			h.nextID++
			req := &mem.Request{ID: h.nextID, Addr: lineAddr(rng.Intn(12)), InsnID: addr.HashPC(uint32(rng.Intn(4))), Store: rng.Intn(10) == 0}
			want, before := h.c.WouldStall(req), h.c.Epoch()
			got := h.c.Access(req) == mem.OutcomeStall
			if got != want {
				t.Fatalf("%s cycle %d: Access stalled=%v, WouldStall said %v for %v", pol, now, got, want, req)
			}
			if got {
				stalls++
				if h.c.Epoch() != before {
					t.Fatalf("%s: a stalled access moved the park token", pol)
				}
			}
			if rng.Intn(3) == 0 {
				missQueued, before := h.c.missQ.Len() > 0, h.c.Epoch()
				if out := h.c.PopOutgoing(); out != nil {
					if missQueued == (h.c.Epoch() == before) {
						t.Fatalf("%s: park token moved=%v on a pop with a miss queued=%v", pol, h.c.Epoch() != before, missQueued)
					}
					if !out.Store {
						inFlight = append(inFlight, out)
					}
				}
			}
		}
		if sp, _ := policy.Lookup(pol); sp.Blocked != [3]policy.Decision{policy.Bypass, policy.Bypass, policy.Bypass} && stalls == 0 {
			t.Errorf("%s never stalled: the configuration proves nothing", pol)
		}
	}
}
