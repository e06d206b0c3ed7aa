package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/prng"
)

// TestLineSetMatchesMap drives the two-level bitset and the map it
// replaced with the same IDs — dense runs, repeats, page-straddling
// neighbours and sparse IDs up to the top of the 64-bit space (some
// fifty thousand pages, so the page table grows a dozen times) — and
// requires the same first-touch verdict for every one.
func TestLineSetMatchesMap(t *testing.T) {
	var s lineSet
	ref := map[uint64]bool{}
	r := prng.New(0x11e5e7)
	check := func(id uint64) {
		t.Helper()
		if got, want := s.add(id), !ref[id]; got != want {
			t.Fatalf("add(%#x) = %v, want %v", id, got, want)
		}
		ref[id] = true
	}
	for i := 0; i < 200000; i++ {
		switch r.Intn(4) {
		case 0:
			check(uint64(r.Intn(1 << 18))) // dense, many repeats
		case 1:
			check(uint64(r.Intn(64))<<linePageShift - 1 + uint64(r.Intn(3))) // either side of a page edge
		case 2:
			check(r.Uint64()) // anywhere
		default:
			check(^uint64(0) - uint64(r.Intn(1<<10)))
		}
	}
}

// TestL1DOwnsNoLinePagesUntilFirstMiss: sim.New builds sixteen of these
// per engine, so the set must cost nothing until a line is requested.
func TestL1DOwnsNoLinePagesUntilFirstMiss(t *testing.T) {
	c := NewL1D(config.Baseline(), config.PolicyDLP, func(*mem.Request) {})
	if c.seen.buckets != nil {
		t.Fatal("a fresh L1D already owns a line-set table")
	}
	c.Tick(1)
	c.Access(&mem.Request{ID: 1, Addr: 0x4000})
	if c.seen.n != 1 || c.Stats().L1DCompulsory != 1 {
		t.Errorf("after one miss: %d pages, %d compulsory; want 1 and 1", c.seen.n, c.Stats().L1DCompulsory)
	}
}

// TestLineSetResetKeepsFewPages: a reset keeps at most maxSparePages
// pages and a table no wider than they need, however many pages the run
// before it touched, and the set it leaves is empty.
func TestLineSetResetKeepsFewPages(t *testing.T) {
	var s lineSet
	for p := uint64(0); p < 64; p++ {
		s.add(p << linePageShift)
	}
	s.reset()
	if len(s.spare) > maxSparePages || len(s.buckets) > 2*maxSparePages {
		t.Errorf("after a 64-page run a reset kept %d pages and %d buckets; want at most %d and %d",
			len(s.spare), len(s.buckets), maxSparePages, 2*maxSparePages)
	}
	for p := uint64(0); p < 64; p++ {
		if !s.add(p << linePageShift) {
			t.Fatalf("line %#x still present after a reset", p<<linePageShift)
		}
	}
}
