package ring

import (
	"testing"

	"repro/internal/prng"
)

// TestQueueMatchesSlice drives a Queue and a plain slice with the same
// random pushes and pops, across several doublings and wrap-arounds, and
// requires the same elements in the same order at every step.
func TestQueueMatchesSlice(t *testing.T) {
	rng := prng.New(3)
	var q Queue[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		// Drift upwards for a while, then drain, so the ring both grows
		// and wraps.
		pushBias := 6
		if step/2000%2 == 1 {
			pushBias = 3
		}
		if rng.Intn(10) < pushBias {
			next++
			q.Push(next)
			ref = append(ref, next)
		} else if len(ref) > 0 {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		if len(ref) > 0 && (*q.Front() != ref[0] || *q.Back() != ref[len(ref)-1]) {
			t.Fatalf("step %d: Front/Back = %d/%d, want %d/%d",
				step, *q.Front(), *q.Back(), ref[0], ref[len(ref)-1])
		}
	}
}

// TestQueueDrainedRetainsNothing pins the zeroing Pop: a drained queue
// holds no pointer to anything it once queued.
func TestQueueDrainedRetainsNothing(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 100; i++ {
		q.Push(new(int))
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a pointer after the queue drained", i)
		}
	}
}

// TestQueueSteadyStateAllocs pins the ring allocation-free once it has
// reached its working depth.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 32; i++ {
		q.Push(i)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		q.Push(q.Pop())
	}); avg != 0 {
		t.Errorf("steady-state Push/Pop allocates %.2f per op, want 0", avg)
	}
}
