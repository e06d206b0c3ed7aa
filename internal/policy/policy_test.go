package policy

import (
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/stats"
)

// testHost builds a Host over a fresh tag array at the baseline
// geometry, with a mutable clock the test can advance.
func testHost(t *testing.T, now *uint64, mutate func(*config.Config)) *Host {
	t.Helper()
	cfg := config.Baseline()
	if mutate != nil {
		mutate(cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	kind := addr.LinearIndex
	if cfg.L1D.Hashed {
		kind = addr.HashIndex
	}
	m := addr.MustMapper(cfg.L1D.LineSize, cfg.L1D.Sets, kind)
	return &Host{
		Cfg:    cfg,
		Mapper: m,
		Tags:   cache.NewTagArray(m, cfg.L1D.Ways),
		Stats:  &stats.Stats{},
		Now:    func() uint64 { return *now },
	}
}

func TestRegistryShape(t *testing.T) {
	if got := len(All()); got != 7 {
		t.Fatalf("All() has %d policies, want 7", got)
	}
	wantPaper := []config.Policy{
		config.PolicyBaseline, config.PolicyStallBypass,
		config.PolicyGlobalProtection, config.PolicyDLP,
	}
	paper := Paper()
	if len(paper) != len(wantPaper) {
		t.Fatalf("Paper() = %v, want %v", paper, wantPaper)
	}
	for i, p := range wantPaper {
		if paper[i] != p {
			t.Errorf("Paper()[%d] = %v, want %v", i, paper[i], p)
		}
	}
	for _, sp := range Specs() {
		if sp.Cite == "" {
			t.Errorf("%v: empty citation", sp.Name)
		}
		if sp.New == nil {
			t.Errorf("%v: nil constructor", sp.Name)
		}
		if _, ok := Lookup(sp.Name); !ok {
			t.Errorf("Lookup(%v) failed for a registered policy", sp.Name)
		}
	}
	for _, p := range All() {
		if !strings.Contains(Usage(), strings.ToLower(string(p))) {
			t.Errorf("Usage() %q misses %v", Usage(), p)
		}
	}
}

func TestParseSpellings(t *testing.T) {
	cases := map[string]config.Policy{
		"baseline":       config.PolicyBaseline,
		"base":           config.PolicyBaseline,
		"STALL-BYPASS":   config.PolicyStallBypass,
		"sb":             config.PolicyStallBypass,
		"gp":             config.PolicyGlobalProtection,
		"dlp":            config.PolicyDLP,
		" DLP ":          config.PolicyDLP,
		"ata":            config.PolicyATA,
		"ata-cache":      config.PolicyATA,
		"ccws-lite":      config.PolicyCCWS,
		"ccws":           config.PolicyCCWS,
		"ReusePredictor": config.PolicyReusePredictor,
		"pred":           config.PolicyReusePredictor,
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := Parse("mru"); err == nil {
		t.Error("Parse accepted an unregistered policy")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found an unregistered policy")
	}
}

// TestNewBuildsEveryPolicy constructs each registered scheme — policy
// and, where it has one, victim filter — over a live host and runs its
// invariant check on the pristine state, where every line is an
// eligible victim.
func TestNewBuildsEveryPolicy(t *testing.T) {
	now := uint64(0)
	for _, sp := range Specs() {
		h := testHost(t, &now, nil)
		if err := sp.New(h).CheckInvariants(); err != nil {
			t.Errorf("%v: pristine invariants: %v", sp.Name, err)
		}
		if sp.Eligible != nil && !sp.Eligible(h)(&h.Tags.Set(0)[0]) {
			t.Errorf("%v: pristine line is not victim-eligible", sp.Name)
		}
	}
}

// TestBlockedTable pins the stall-vs-bypass decision of every registered
// scheme for every reason an access can be blocked: 7 x 3 cells.
func TestBlockedTable(t *testing.T) {
	const S, B = Stall, Bypass
	want := map[config.Policy][3]Decision{ // BlockNoMerge, BlockStructural, BlockNoVictim
		config.PolicyBaseline:         {S, S, S},
		config.PolicyStallBypass:      {B, B, B},
		config.PolicyGlobalProtection: {S, S, B},
		config.PolicyDLP:              {S, S, B},
		config.PolicyATA:              {B, B, B},
		config.PolicyCCWS:             {S, S, B},
		config.PolicyReusePredictor:   {S, S, B},
	}
	if len(want) != len(Specs()) {
		t.Fatalf("table covers %d schemes, registry has %d", len(want), len(Specs()))
	}
	for _, sp := range Specs() {
		if err := sp.check(); err != nil {
			t.Error(err)
		}
		for _, why := range []Block{BlockNoMerge, BlockStructural, BlockNoVictim} {
			if got := sp.Blocked[why]; got != want[sp.Name][why] {
				t.Errorf("%v blocked for reason %d: decision %d, want %d", sp.Name, why, got, want[sp.Name][why])
			}
		}
	}
}

// TestMissHookOrder pins the order each VTA scheme keeps inside its one
// miss hook. The set's VTA is full and the incoming tag is its LRU
// entry, so inserting the victim's tag first pushes that entry out:
// protect and ReusePredictor look up before they insert and see the
// reuse, CCWS-lite inserts first and does not.
func TestMissHookOrder(t *testing.T) {
	now := uint64(0)
	cases := []struct {
		name     string
		new      func(h *Host) (Policy, *VTA)
		wantHits uint64
	}{
		{"DLP", func(h *Host) (Policy, *VTA) { p := newProtect(h, false); return p, p.vta }, 1},
		{"ReusePredictor", func(h *Host) (Policy, *VTA) { p := newReusePredictor(h); return p, p.vta }, 1},
		{"CCWS-lite", func(h *Host) (Policy, *VTA) { p := newCCWS(h); return p, p.vta }, 0},
	}
	for _, tc := range cases {
		h := testHost(t, &now, nil)
		p, vta := tc.new(h)
		req := &mem.Request{Addr: 0x8000, InsnID: 5}
		set, tag := h.Mapper.Set(req.Addr), h.Mapper.Tag(req.Addr)
		vta.Insert(set, tag, 5) // oldest entry: the line about to be refetched
		for i := 1; i < h.Cfg.VTAWays; i++ {
			vta.Insert(set, tag+uint64(i), 5)
		}
		victim := cache.Line{Tag: tag + 100, InsnID: 6, Valid: true}
		p.OnMiss(req, set, &h.Tags.Set(set)[0], victim)
		if h.Stats.VTAHits != tc.wantHits {
			t.Errorf("%s: %d VTA hits, want %d", tc.name, h.Stats.VTAHits, tc.wantHits)
		}
		if _, ok := vta.Peek(set, victim.Tag); !ok {
			t.Errorf("%s: the displaced line's tag is not in the VTA", tc.name)
		}
	}
}

func TestATAAdmission(t *testing.T) {
	now := uint64(0)
	h := testHost(t, &now, nil)
	p := newATA(h)
	req := &mem.Request{Addr: 0x4000, InsnID: 3}
	set := h.Mapper.Set(req.Addr)

	if p.Admit(req, set) {
		t.Fatal("first touch was admitted; want bypass")
	}
	if p.firstTouch != 1 || p.admits != 0 {
		t.Fatalf("after first touch: firstTouch=%d admits=%d", p.firstTouch, p.admits)
	}
	if !p.Admit(req, set) {
		t.Fatal("second touch was bypassed; want admit")
	}
	if p.admits != 1 {
		t.Fatalf("after second touch: admits=%d, want 1", p.admits)
	}

	// A different line in the same set starts over. The index is
	// hashed, so scan for a second address that lands in the set.
	other := &mem.Request{InsnID: 3}
	for a := req.Addr + addr.Addr(h.Cfg.L1D.LineSize); other.Addr == 0; a += addr.Addr(h.Cfg.L1D.LineSize) {
		if h.Mapper.Set(a) == set && h.Mapper.Tag(a) != h.Mapper.Tag(req.Addr) {
			other.Addr = a
		}
	}
	if p.Admit(other, set) {
		t.Fatal("unseen tag was admitted")
	}

	// A displaced line's tag is tracked too, so its refetch is admitted;
	// an empty way displaces nothing. (That every blocked access
	// bypasses is TestBlockedTable's ATA row.)
	tracked := p.tags.Len()
	p.OnMiss(req, set, &h.Tags.Set(set)[0], cache.Line{})
	if p.tags.Len() != tracked {
		t.Fatal("an invalid victim was recorded in the aggregated array")
	}
	displaced := cache.Line{Tag: h.Mapper.Tag(other.Addr) + 1, Valid: true}
	p.OnMiss(req, set, &h.Tags.Set(set)[0], displaced)
	if _, ok := p.tags.Peek(set, displaced.Tag); !ok {
		t.Fatal("the displaced line's tag is missing from the aggregated array")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCCWSAccessesMode(t *testing.T) {
	now := uint64(0)
	h := testHost(t, &now, nil)
	p := newCCWS(h)
	req := &mem.Request{Addr: 0x8000, InsnID: 5}
	set := h.Mapper.Set(req.Addr)
	tag := h.Mapper.Tag(req.Addr)
	ln := &h.Tags.Set(set)[0]

	// Without VTA evidence, insertion grants nothing.
	p.OnMiss(req, set, ln, cache.Line{})
	if ln.PL != 0 || p.protected != 0 {
		t.Fatalf("unevicted line protected: PL=%d", ln.PL)
	}

	// Evict the line (a miss on another displaces it), refetch it: lost
	// locality, protection granted.
	other := &mem.Request{Addr: 0x8000 + 1<<20, InsnID: 6}
	p.OnMiss(other, set, &cache.Line{}, cache.Line{Tag: tag, InsnID: 5, Valid: true})
	p.OnMiss(req, set, ln, cache.Line{})
	if ln.PL != h.Cfg.CCWSProtectAccesses {
		t.Fatalf("refetched line PL=%d, want %d", ln.PL, h.Cfg.CCWSProtectAccesses)
	}
	if p.lost != 1 || p.protected != 1 || h.Stats.VTAHits != 1 {
		t.Fatalf("lost=%d protected=%d vtaHits=%d, want 1/1/1", p.lost, p.protected, h.Stats.VTAHits)
	}

	// The VTA entry was consumed: a second refetch gets no protection.
	probe := &cache.Line{}
	p.OnMiss(req, set, probe, cache.Line{})
	if probe.PL != 0 {
		t.Fatal("consumed VTA entry granted protection twice")
	}

	// The filter shields the line until OnAccess ages PL to zero.
	filter := ccwsEligible(h)
	if filter(ln) {
		t.Fatal("protected line is victim-eligible")
	}
	for i := 0; i < h.Cfg.CCWSProtectAccesses; i++ {
		p.OnAccess(req, set)
	}
	if !filter(ln) {
		t.Fatalf("line still protected after %d set queries: PL=%d",
			h.Cfg.CCWSProtectAccesses, ln.PL)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCCWSCyclesMode(t *testing.T) {
	now := uint64(100)
	h := testHost(t, &now, func(cfg *config.Config) { cfg.CCWSByCycles = true })
	p := newCCWS(h)
	req := &mem.Request{Addr: 0x8000, InsnID: 5}
	set := h.Mapper.Set(req.Addr)
	tag := h.Mapper.Tag(req.Addr)
	ln := &h.Tags.Set(set)[0]

	other := &mem.Request{Addr: 0x8000 + 1<<20, InsnID: 6}
	p.OnMiss(other, set, &cache.Line{}, cache.Line{Tag: tag, InsnID: 5, Valid: true})
	p.OnMiss(req, set, ln, cache.Line{})
	want := int(now) + h.Cfg.CCWSProtectCycles
	if ln.PL != want {
		t.Fatalf("cycles-mode PL=%d, want expiry cycle %d", ln.PL, want)
	}

	// The deadline holds against the clock, not against set queries.
	filter := ccwsEligible(h)
	for i := 0; i < 10*h.Cfg.CCWSProtectCycles; i++ {
		p.OnAccess(req, set)
	}
	if filter(ln) {
		t.Fatal("cycles-mode protection aged by accesses")
	}
	now = uint64(want)
	if !filter(ln) {
		t.Fatalf("line still protected at its expiry cycle %d", want)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestReusePredictorDeadAndResurrect(t *testing.T) {
	now := uint64(0)
	h := testHost(t, &now, func(cfg *config.Config) { cfg.PredictorDeadPeriods = 2 })
	p := newReusePredictor(h)
	req := &mem.Request{Addr: 0xC000, InsnID: 7}
	set := h.Mapper.Set(req.Addr)
	tag := h.Mapper.Tag(req.Addr)

	// Two sampling periods of allocations with zero reuse: dead.
	ln := &cache.Line{}
	for period := 0; period < 2; period++ {
		p.OnMiss(req, set, ln, cache.Line{})
		p.endPeriod()
	}
	e := &p.table[p.idx(req.InsnID)]
	if !e.dead {
		t.Fatalf("entry not dead after 2 reuse-free periods: %+v", *e)
	}
	if p.flips != 1 {
		t.Fatalf("flips=%d, want 1", p.flips)
	}
	if p.Admit(req, set) {
		t.Fatal("dead instruction's miss was admitted")
	}
	if p.bypassPredictions != 1 {
		t.Fatalf("bypassPredictions=%d, want 1", p.bypassPredictions)
	}

	// The bypass trains the VTA with the suppressed tag...
	p.OnBypass(req, set)
	if _, ok := p.vta.Peek(set, tag); !ok {
		t.Fatal("bypassed tag missing from the VTA")
	}
	// ...but OnBypass itself already finds that tag's own evidence is
	// absent the first time, so the entry stays dead; a later allocation
	// of the same line hits the VTA and resurrects the instruction.
	if !e.dead {
		t.Fatal("entry resurrected without reuse evidence")
	}
	p.OnMiss(req, set, ln, cache.Line{})
	if e.dead {
		t.Fatal("VTA-evidenced allocation did not resurrect the entry")
	}
	if p.mispredicts != 1 {
		t.Fatalf("mispredicts=%d, want 1", p.mispredicts)
	}
	if e.streak != 0 {
		t.Fatalf("resurrected entry keeps streak %d", e.streak)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}

	// TDA reuse inside a period also keeps an instruction alive.
	alive := &mem.Request{Addr: 0xD000, InsnID: 9}
	ln = &cache.Line{InsnID: 9}
	for period := 0; period < 4; period++ {
		p.OnMiss(alive, h.Mapper.Set(alive.Addr), ln, cache.Line{})
		p.OnHit(alive, h.Mapper.Set(alive.Addr), ln)
		p.endPeriod()
	}
	if p.table[p.idx(9)].dead {
		t.Fatal("instruction with steady TDA reuse was predicted dead")
	}
}

// TestRegisterUnregister exercises the out-of-tree registration seam:
// a registered scratch scheme is visible through every lookup path, a
// name or alias collision is rejected, and Unregister removes scratch
// entries but never compiled-in ones.
func TestRegisterUnregister(t *testing.T) {
	scratch := Spec{
		Name:    config.Policy("Scratch-Test"),
		Aliases: []string{"scratch"},
		Cite:    "test-only",
		New:     func(h *Host) Policy { return &baseline{h: h} },
	}
	if err := Register(scratch); err != nil {
		t.Fatal(err)
	}
	defer Unregister(scratch.Name)

	if _, ok := Lookup(scratch.Name); !ok {
		t.Error("registered policy not found by Lookup")
	}
	if got, err := Parse("scratch"); err != nil || got != scratch.Name {
		t.Errorf("Parse(alias) = %q, %v", got, err)
	}
	found := false
	for _, name := range All() {
		if name == scratch.Name {
			found = true
		}
	}
	if !found {
		t.Error("registered policy missing from All()")
	}
	for _, name := range Paper() {
		if name == scratch.Name {
			t.Error("scratch policy leaked into Paper()")
		}
	}

	if err := Register(scratch); err == nil {
		t.Error("duplicate Register not rejected")
	}
	if err := Register(Spec{Name: "Other", Aliases: []string{"scratch"},
		New: scratch.New}); err == nil {
		t.Error("alias collision not rejected")
	}
	if err := Register(Spec{Name: "NoCtor"}); err == nil {
		t.Error("nil constructor not rejected")
	}
	if err := Register(Spec{Name: "FilteredStall", Eligible: plExpired, New: scratch.New}); err == nil {
		Unregister("FilteredStall")
		t.Error("a victim filter that stalls on no victim not rejected")
	}

	if !Unregister(scratch.Name) {
		t.Error("Unregister did not find the scratch policy")
	}
	if _, ok := Lookup(scratch.Name); ok {
		t.Error("policy still visible after Unregister")
	}
	if Unregister(config.PolicyDLP) {
		t.Error("Unregister removed a compiled-in policy")
	}
	if _, ok := Lookup(config.PolicyDLP); !ok {
		t.Error("DLP vanished")
	}
}
