package mem

import "testing"

// TestRecyclerDrainTo pins the drain the engine's window close uses:
// defer order is preserved, the recycler is emptied (and its backing
// slots cleared so it holds no stale references), and a nil receiver
// leaves the lane untouched.
func TestRecyclerDrainTo(t *testing.T) {
	rc := &Recycler{}
	a, b, c := &Request{SM: 1}, &Request{SM: 2}, &Request{SM: 3}
	rc.Defer(a)
	rc.Defer(b)
	rc.Defer(c)

	lane := make([]*Request, 0, 1)
	lane = append(lane, &Request{SM: 0})
	lane = rc.DrainTo(lane)

	if len(lane) != 4 {
		t.Fatalf("lane has %d entries, want 4", len(lane))
	}
	for i, want := range []*Request{lane[0], a, b, c} {
		if lane[i] != want {
			t.Errorf("lane[%d] = %p, want %p (defer order must be preserved)", i, lane[i], want)
		}
	}
	if rc.Len() != 0 {
		t.Errorf("recycler holds %d requests after DrainTo, want 0", rc.Len())
	}
	for i, r := range rc.reqs[:cap(rc.reqs)] {
		if r != nil {
			t.Errorf("backing slot %d not cleared after DrainTo", i)
		}
	}

	// Draining an empty recycler, or a nil one, must not grow the lane.
	if got := rc.DrainTo(nil); got != nil {
		t.Errorf("empty DrainTo(nil) = %v, want nil", got)
	}
	var nilRC *Recycler
	if got := nilRC.DrainTo(lane); len(got) != len(lane) {
		t.Errorf("nil receiver extended the lane: %d -> %d", len(lane), len(got))
	}
}

// TestRecyclerDrainToReusesBacking proves repeated Defer/DrainTo cycles
// reuse the recycler's backing array — the allocation-free steady state
// the engine's window lanes rely on.
func TestRecyclerDrainToReusesBacking(t *testing.T) {
	rc := &Recycler{}
	var lane []*Request
	req := &Request{}
	allocs := testing.AllocsPerRun(100, func() {
		rc.Defer(req)
		lane = rc.DrainTo(lane[:0])
	})
	if allocs > 0 {
		t.Errorf("steady-state Defer/DrainTo allocates %.1f per cycle, want 0", allocs)
	}
}
