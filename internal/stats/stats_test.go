package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestIPC(t *testing.T) {
	s := &Stats{Cycles: 100, Instructions: 250}
	if got := s.IPC(); got != 2.5 {
		t.Errorf("IPC = %v, want 2.5", got)
	}
	z := &Stats{}
	if got := z.IPC(); got != 0 {
		t.Errorf("IPC of empty stats = %v, want 0", got)
	}
}

func TestHitRateExcludesBypasses(t *testing.T) {
	s := &Stats{L1DAccesses: 100, L1DHits: 30, L1DMisses: 30, L1DBypasses: 40}
	if got := s.L1DHitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5 (bypasses excluded)", got)
	}
	z := &Stats{}
	if got := z.L1DHitRate(); got != 0 {
		t.Errorf("hit rate of empty stats = %v", got)
	}
}

func TestMemoryAccessRatio(t *testing.T) {
	s := &Stats{Instructions: 1000, L1DAccesses: 10, StoreAccesses: 5}
	if got := s.MemoryAccessRatio(); got != 0.015 {
		t.Errorf("ratio = %v, want 0.015", got)
	}
	if got := (&Stats{}).MemoryAccessRatio(); got != 0 {
		t.Errorf("ratio of empty = %v", got)
	}
}

func TestAddAccumulatesEveryField(t *testing.T) {
	a := &Stats{
		Cycles: 1, Instructions: 2, WarpInsns: 3,
		L1DAccesses: 4, L1DHits: 5, L1DMisses: 6, L1DBypasses: 7,
		L1DEvictions: 8, L1DStalls: 9, L1DTraffic: 10, VTAHits: 11,
		L1DCompulsory: 12, L2Accesses: 13, L2Hits: 14, L2Misses: 15,
		DRAMReads: 16, DRAMWrites: 17, ICNTFlits: 18, ICNTDataFlits: 19,
		StoreAccesses: 20,
	}
	b := &Stats{}
	b.Add(a)
	b.Add(a)
	if b.Cycles != 2 || b.Instructions != 4 || b.WarpInsns != 6 ||
		b.L1DAccesses != 8 || b.L1DHits != 10 || b.L1DMisses != 12 ||
		b.L1DBypasses != 14 || b.L1DEvictions != 16 || b.L1DStalls != 18 ||
		b.L1DTraffic != 20 || b.VTAHits != 22 || b.L1DCompulsory != 24 ||
		b.L2Accesses != 26 || b.L2Hits != 28 || b.L2Misses != 30 ||
		b.DRAMReads != 32 || b.DRAMWrites != 34 || b.ICNTFlits != 36 ||
		b.ICNTDataFlits != 38 || b.StoreAccesses != 40 {
		t.Errorf("Add missed a field: %+v", b)
	}
}

// TestAddCoversEveryFieldReflect fills every counter field via
// reflection, so a counter added to Stats but forgotten in Add fails
// here without this test needing an update.
func TestAddCoversEveryFieldReflect(t *testing.T) {
	a := &Stats{}
	v := reflect.ValueOf(a).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("field %s is %s; extend this test (and Add) for non-uint64 counters",
				v.Type().Field(i).Name, f.Kind())
		}
		f.SetUint(uint64(i + 1))
	}
	b := &Stats{}
	b.Add(a)
	b.Add(a)
	bv := reflect.ValueOf(b).Elem()
	for i := 0; i < bv.NumField(); i++ {
		if got, want := bv.Field(i).Uint(), uint64(2*(i+1)); got != want {
			t.Errorf("Add dropped field %s: got %d, want %d", bv.Type().Field(i).Name, got, want)
		}
	}
}

// TestAddConservationRoundTrip shards a conserving Stats, folds the
// shards back with Add, and checks the identity the engine relies on
// when it folds per-component stats into one total: the sum equals the
// whole, and conservation holds on the sum whenever it holds on every
// shard.
func TestAddConservationRoundTrip(t *testing.T) {
	shards := []*Stats{
		{L1DAccesses: 10, L1DHits: 4, L1DMisses: 3, L1DBypasses: 3, L1DTraffic: 7, Cycles: 5, Instructions: 9},
		{L1DAccesses: 6, L1DHits: 6, L1DTraffic: 6, Cycles: 5, Instructions: 2},
		{}, // an idle shard must be a no-op
	}
	sum := &Stats{}
	for _, sh := range shards {
		if err := sh.CheckConservation(); err != nil {
			t.Fatalf("shard invalid before the round-trip: %v", err)
		}
		sum.Add(sh.Clone()) // through Clone, as the runner's cache serves results
	}
	if err := sum.CheckConservation(); err != nil {
		t.Errorf("conservation broke across Add: %v", err)
	}
	want := Stats{L1DAccesses: 16, L1DHits: 10, L1DMisses: 3, L1DBypasses: 3,
		L1DTraffic: 13, Cycles: 10, Instructions: 11}
	if *sum != want {
		t.Errorf("round-trip sum = %+v, want %+v", *sum, want)
	}
	// Mutating the summed result must not reach back into the shards.
	sum.L1DHits = 999
	if shards[0].L1DHits != 4 {
		t.Error("Add aliased a shard")
	}
}

func TestCheckConservation(t *testing.T) {
	ok := &Stats{L1DAccesses: 10, L1DHits: 4, L1DMisses: 3, L1DBypasses: 3, L1DTraffic: 7}
	if err := ok.CheckConservation(); err != nil {
		t.Errorf("valid stats rejected: %v", err)
	}
	bad := &Stats{L1DAccesses: 10, L1DHits: 4, L1DMisses: 3, L1DBypasses: 2, L1DTraffic: 7}
	if err := bad.CheckConservation(); err == nil {
		t.Error("imbalanced accesses not caught")
	}
	bad2 := &Stats{L1DAccesses: 10, L1DHits: 4, L1DMisses: 3, L1DBypasses: 3, L1DTraffic: 8}
	if err := bad2.CheckConservation(); err == nil {
		t.Error("imbalanced traffic not caught")
	}
}

func TestStringMentionsKeyCounters(t *testing.T) {
	s := &Stats{Cycles: 7, Instructions: 21}
	out := s.String()
	for _, want := range []string{"IPC=3.000", "cycles=7", "L1D", "DRAM"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{5}); math.Abs(got-5) > 1e-12 {
		t.Errorf("GeoMean(5) = %v, want 5", got)
	}
	if got := GeoMean(nil); !math.IsNaN(got) {
		t.Errorf("GeoMean(nil) = %v, want NaN", got)
	}
	if got := GeoMean([]float64{1, 0}); !math.IsNaN(got) {
		t.Errorf("GeoMean with zero = %v, want NaN", got)
	}
	if got := GeoMean([]float64{1, -2}); !math.IsNaN(got) {
		t.Errorf("GeoMean with negative = %v, want NaN", got)
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// Geometric mean lies between min and max of a positive series.
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 9, 5}, []float64{4, 3, 0})
	want := []float64{0.5, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Shorter baseline must not panic.
	got = Normalize([]float64{1, 2}, []float64{2})
	if got[0] != 0.5 || got[1] != 0 {
		t.Errorf("Normalize with short baseline = %v", got)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(3, 4); got != 0.75 {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Errorf("Ratio by zero = %v", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 1, 2, 5, 9, 70} {
		h.Observe(v)
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(1) != 2 {
		t.Errorf("Count(1) = %d", h.Count(1))
	}
	if h.CountRange(1, 4) != 3 {
		t.Errorf("CountRange(1,4) = %d", h.CountRange(1, 4))
	}
	if h.CountAtLeast(65) != 1 {
		t.Errorf("CountAtLeast(65) = %d", h.CountAtLeast(65))
	}
	keys := h.Keys()
	want := []int{1, 2, 5, 9, 70}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("Keys[%d] = %d, want %d", i, keys[i], want[i])
		}
	}
}

func TestHistogramFractionsPaperBuckets(t *testing.T) {
	h := NewHistogram()
	// 2 in 1-4, 1 in 5-8, 1 in 9-64, 1 in >=65.
	for _, v := range []int{1, 4, 8, 64, 65} {
		h.Observe(v)
	}
	buckets := [][2]int{{1, 4}, {5, 8}, {9, 64}, {65, math.MaxInt}}
	fr := h.Fractions(buckets)
	want := []float64{0.4, 0.2, 0.2, 0.2}
	for i := range want {
		if math.Abs(fr[i]-want[i]) > 1e-12 {
			t.Errorf("fraction[%d] = %v, want %v", i, fr[i], want[i])
		}
	}
	// Fractions over an empty histogram are all zero.
	empty := NewHistogram().Fractions(buckets)
	for i, f := range empty {
		if f != 0 {
			t.Errorf("empty fraction[%d] = %v", i, f)
		}
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(int(v) + 1)
		}
		if h.Total() == 0 {
			return true
		}
		fr := h.Fractions([][2]int{{1, 4}, {5, 8}, {9, 64}, {65, math.MaxInt}})
		sum := 0.0
		for _, x := range fr {
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := &Stats{Cycles: 10, L1DHits: 5, ICNTFlits: 7}
	c := s.Clone()
	if *c != *s {
		t.Fatalf("clone differs: %+v vs %+v", c, s)
	}
	c.L1DHits = 99
	if s.L1DHits != 5 {
		t.Error("mutating the clone changed the original")
	}
}
