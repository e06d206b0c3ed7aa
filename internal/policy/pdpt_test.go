package policy

import (
	"testing"
	"testing/quick"
)

func TestNewPDPTPanicsOnBadParams(t *testing.T) {
	for _, c := range [][3]int{{0, 4, 15}, {128, 0, 15}, {128, 4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPDPT(%v) did not panic", c)
				}
			}()
			NewPDPT(c[0], c[1], c[2])
		}()
	}
}

func TestStepAdj(t *testing.T) {
	const nasc = 4
	cases := []struct {
		vta, tda uint64
		want     int
	}{
		{0, 0, 0},   // no VTA evidence: no protection increase
		{0, 100, 0}, //
		{8, 2, 16},  // >= 4x -> 4*Nasc
		{8, 4, 8},   // >= 2x -> 2*Nasc
		{8, 8, 4},   // >= 1x -> Nasc
		{4, 8, 2},   // >= 1/2x -> Nasc/2
		{3, 8, 0},   // < 1/2x -> 0
		{5, 0, 16},  // VTA hits with zero TDA hits: max increment
		{7, 2, 8},   // 3.5x falls in the 2x bucket
	}
	for _, c := range cases {
		if got := stepAdj(c.vta, c.tda, nasc); got != c.want {
			t.Errorf("stepAdj(%d, %d, %d) = %d, want %d", c.vta, c.tda, nasc, got, c.want)
		}
	}
}

// TestPDIncreasePath exercises the left branch of Figure 9: global VTA
// hits exceed global TDA hits, so each instruction's PD grows by its own
// VTA/TDA ratio.
func TestPDIncreasePath(t *testing.T) {
	p := NewPDPT(128, 4, 15)
	// insn 1: strong VTA evidence (8 VTA vs 1 TDA -> 4*Nasc = 16, clamps to 15).
	for i := 0; i < 8; i++ {
		p.CreditVTA(1)
	}
	p.CreditTDA(1)
	// insn 2: balanced (2 VTA vs 2 TDA -> Nasc = 4).
	p.CreditVTA(2)
	p.CreditVTA(2)
	p.CreditTDA(2)
	p.CreditTDA(2)
	// insn 3: TDA only -> no increase.
	p.CreditTDA(3)

	// Global: VTA=10 > TDA=4 -> increase path.
	p.EndSample()
	if got := p.PD(1); got != 15 {
		t.Errorf("PD(1) = %d, want 15 (16 clamped to 4-bit max)", got)
	}
	if got := p.PD(2); got != 4 {
		t.Errorf("PD(2) = %d, want 4", got)
	}
	if got := p.PD(3); got != 0 {
		t.Errorf("PD(3) = %d, want 0", got)
	}
	if p.Samples() != 1 {
		t.Errorf("Samples = %d", p.Samples())
	}
	wantBranches(t, p, 1, 0)
}

// wantBranches checks the table's count of Fig. 9 increase and decrease
// periods.
func wantBranches(t *testing.T, p *PDPT, grows, shrinks uint64) {
	t.Helper()
	if g, s := p.Branches(); g != grows || s != shrinks {
		t.Errorf("Branches = %d grows, %d shrinks; want %d, %d", g, s, grows, shrinks)
	}
}

// TestPDDecreasePath exercises the right branch: global VTA hits below
// half the TDA hits shrink every PD by Nasc, regardless of per-PC ratios.
func TestPDDecreasePath(t *testing.T) {
	p := NewPDPT(128, 4, 15)
	// Raise PDs first.
	for i := 0; i < 4; i++ {
		p.CreditVTA(5)
	}
	p.EndSample()
	if p.PD(5) != 15 {
		t.Fatalf("setup PD = %d", p.PD(5))
	}
	// Now a sample with many TDA hits and almost no VTA hits.
	for i := 0; i < 10; i++ {
		p.CreditTDA(5)
	}
	p.CreditVTA(5)
	p.EndSample()
	if got := p.PD(5); got != 11 {
		t.Errorf("PD(5) = %d, want 15-4=11", got)
	}
	// Uninvolved instructions also decrease (but clamp at zero).
	if got := p.PD(9); got != 0 {
		t.Errorf("PD(9) = %d, want 0", got)
	}
	wantBranches(t, p, 1, 1)
}

// TestPDHoldPath: between the two thresholds nothing changes.
func TestPDHoldPath(t *testing.T) {
	p := NewPDPT(128, 4, 15)
	p.CreditVTA(7)
	p.EndSample() // PD(7) rises
	before := p.PD(7)
	// TDA=3, VTA=2: not greater, and not less than half -> hold.
	p.CreditTDA(7)
	p.CreditTDA(7)
	p.CreditTDA(7)
	p.CreditVTA(7)
	p.CreditVTA(7)
	p.EndSample()
	if got := p.PD(7); got != before {
		t.Errorf("PD changed on the hold path: %d -> %d", before, got)
	}
	wantBranches(t, p, 1, 0)
}

func TestEndSampleResetsCounters(t *testing.T) {
	p := NewPDPT(128, 4, 15)
	p.CreditTDA(1)
	p.CreditVTA(2)
	p.EndSample()
	tda, vta := p.GlobalHits()
	if tda != 0 || vta != 0 {
		t.Errorf("global hits after EndSample = %d/%d", tda, vta)
	}
	// Per-entry counters must be reset too: a second EndSample with no new
	// credits takes the hold path (0 vs 0) and changes nothing.
	before := p.PD(2)
	p.EndSample()
	if p.PD(2) != before {
		t.Error("stale per-entry counters leaked into the next sample")
	}
}

// TestPDPTSampleAllocs pins the Fig. 9 PD-computation cycle at zero
// allocations: it runs inside every L1D access of GP and DLP. One run
// is one whole sampling period (200 credited accesses, then EndSample)
// because AllocsPerRun rounds down — a per-sample allocation averaged
// over per-access runs would read as 0. The TDA share changes from
// period to period so the increase, decrease and hold branches all run.
func TestPDPTSampleAllocs(t *testing.T) {
	p := NewPDPT(128, 4, 15)
	period := 0
	avg := testing.AllocsPerRun(30, func() {
		period++
		for i := 0; i < 200; i++ {
			p.CreditVTA(uint8(i % 128))
			for k := 0; k < period%3*2; k++ { // 0, 2 or 4 TDA hits per VTA hit
				p.CreditTDA(uint8((i + 7) % 128))
			}
		}
		p.EndSample()
	})
	if avg != 0 {
		t.Errorf("PDPT sampling period allocates %.2f times, want 0", avg)
	}
}

// TestPDBoundsProperty: no sequence of credits and samples can push any
// PD outside [0, maxPD].
func TestPDBoundsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		p := NewPDPT(16, 4, 15)
		for _, op := range ops {
			id := op & 0x0f
			switch op % 3 {
			case 0:
				p.CreditTDA(id)
			case 1:
				p.CreditVTA(id)
			case 2:
				p.EndSample()
			}
		}
		p.EndSample()
		for id := 0; id < 16; id++ {
			pd := p.PD(uint8(id))
			if pd < 0 || pd > 15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGlobalPDTSharesOneEntry(t *testing.T) {
	p := NewGlobalPDT(4, 15)
	// Credits to different instruction IDs land in the same entry.
	p.CreditVTA(3)
	p.CreditVTA(99)
	p.CreditTDA(42)
	p.EndSample() // VTA=2 > TDA=1 -> increase by stepAdj(2,1,4)=2*Nasc=8
	for _, id := range []uint8{0, 3, 42, 99, 127} {
		if got := p.PD(id); got != 8 {
			t.Errorf("global PD(%d) = %d, want 8", id, got)
		}
	}
}

func TestGlobalPDTUsesGlobalRatio(t *testing.T) {
	// Even if one instruction has an extreme ratio, the global table must
	// move by the aggregate ratio only.
	p := NewGlobalPDT(4, 15)
	for i := 0; i < 9; i++ {
		p.CreditVTA(1)
	}
	for i := 0; i < 8; i++ {
		p.CreditTDA(2)
	}
	// Global VTA=9 > TDA=8, ratio just above 1x -> +Nasc = 4.
	p.EndSample()
	if got := p.PD(0); got != 4 {
		t.Errorf("global PD = %d, want 4", got)
	}
}

func TestPDPTInsnIDWraps(t *testing.T) {
	// IDs beyond the table size index modulo the entry count rather than
	// panicking.
	p := NewPDPT(8, 4, 15)
	p.CreditVTA(200) // 200 % 8 == 0
	p.EndSample()
	if got := p.PD(0); got == 0 {
		t.Error("credit to wrapped ID did not land")
	}
}

func TestSamplerAccessLimit(t *testing.T) {
	var s Sampler
	s.Reset(3, 1000)
	if s.NoteAccess() || s.NoteAccess() {
		t.Error("sample closed early")
	}
	if !s.NoteAccess() {
		t.Error("sample did not close at the access limit")
	}
	// Counter reset: next period needs 3 accesses again.
	if s.NoteAccess() {
		t.Error("sampler did not reset after closing")
	}
}

func TestSamplerInsnCap(t *testing.T) {
	var s Sampler
	s.Reset(200, 100)
	if s.NoteInstructions(99) {
		t.Error("insn cap fired early")
	}
	if !s.NoteInstructions(1) {
		t.Error("insn cap did not fire at 100")
	}
	// Both clocks reset together.
	if s.NoteInstructions(99) {
		t.Error("insn counter did not reset")
	}
	var s2 Sampler
	s2.Reset(2, 100)
	s2.NoteAccess()
	s2.NoteInstructions(100) // closes via cap
	if s2.NoteAccess() {
		t.Error("access counter did not reset when the insn cap closed the sample")
	}
}

func TestSamplerResetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sampler.Reset(0, 0) did not panic")
		}
	}()
	var s Sampler
	s.Reset(0, 0)
}
