package prng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 collisions between different seeds", same)
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n)%100 + 1
		s := New(seed)
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformityRough(t *testing.T) {
	s := New(99)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[s.Intn(10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/100 || c > n/10+n/100 {
			t.Errorf("bucket %d count %d far from uniform %d", i, c, n/10)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n) % 64
		p := New(seed).Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSkipMatchesDraws: Skip(n) then one draw equals n+1 plain draws,
// and skipping Intn draws leaves the same state as making them.
func TestSkipMatchesDraws(t *testing.T) {
	for _, n := range []int{0, 1, 2, 31, 32, 1000, 1 << 20} {
		skipped, drawn := New(uint64(n)*7+3), New(uint64(n)*7+3)
		skipped.Skip(n)
		for i := 0; i < n; i++ {
			drawn.Uint64()
		}
		if a, b := skipped.Uint64(), drawn.Uint64(); a != b {
			t.Errorf("Skip(%d) then Uint64 = %#x, %d+1 draws = %#x", n, a, n, b)
		}
	}
	skipped, drawn := New(5), New(5)
	skipped.Skip(32)
	for i := 0; i < 32; i++ {
		drawn.Intn(1000)
	}
	if a, b := skipped.Intn(1<<30), drawn.Intn(1<<30); a != b {
		t.Errorf("Skip(32) then Intn = %d, 32 Intn draws then Intn = %d", a, b)
	}
}
