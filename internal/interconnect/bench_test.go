package interconnect

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// lanePushBench builds the engine's per-cycle crossbar pattern: one
// lane of packets handed to PushBatch, the network ticked until the
// batch arrives and is popped, and the emptied lane reused as the next
// cycle's. It returns warm: the first cycles grow the injection and
// in-flight rings to their steady size.
func lanePushBench() (cycle func()) {
	const batchSize = 8
	n := New(2, 64, 32, 128, &stats.Stats{})
	reqs := make([]*mem.Request, batchSize)
	for i := range reqs {
		reqs[i] = &mem.Request{SM: i}
	}
	lane := make([]*mem.Request, 0, batchSize)
	now := uint64(0)
	cycle = func() {
		lane = append(lane[:0], reqs...)
		lane = n.PushBatch(ToMem, lane)
		for {
			n.Tick(now)
			now++
			popped := 0
			for n.PopArrived(ToMem) != nil {
				popped++
			}
			if popped == batchSize {
				break
			}
		}
	}
	cycle()
	cycle()
	return cycle
}

// BenchmarkLanePushBatch measures the steady-state lane merge.
func BenchmarkLanePushBatch(b *testing.B) {
	cycle := lanePushBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestLanePushBatchAllocs pins the lane merge allocation-free once the
// rings have grown: PushBatch must hand back the caller's lane, emptied,
// so the next cycle's fill reuses its backing array.
func TestLanePushBatchAllocs(t *testing.T) {
	if avg := testing.AllocsPerRun(200, lanePushBench()); avg != 0 {
		t.Errorf("lane PushBatch cycle allocates %.2f per cycle, want 0", avg)
	}
}
