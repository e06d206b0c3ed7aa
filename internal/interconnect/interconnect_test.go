package interconnect

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

func newNet(latency, bw int) (*Network, *stats.Stats) {
	st := &stats.Stats{}
	return New(latency, bw, 32, 128, st), st
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero bandwidth")
		}
	}()
	New(10, 0, 32, 128, &stats.Stats{})
}

func TestFlitsFor(t *testing.T) {
	n, _ := newNet(10, 16)
	load := &mem.Request{}
	store := &mem.Request{Store: true}
	// Load request to memory: header only.
	if got := n.FlitsFor(load, ToMem); got != 1 {
		t.Errorf("load->mem flits = %d, want 1", got)
	}
	// Load response to core: header + 128/32 data flits.
	if got := n.FlitsFor(load, ToCore); got != 5 {
		t.Errorf("load->core flits = %d, want 5", got)
	}
	// Store to memory carries the line.
	if got := n.FlitsFor(store, ToMem); got != 5 {
		t.Errorf("store->mem flits = %d, want 5", got)
	}
	// Stores never travel back, but the accounting is header-only.
	if got := n.FlitsFor(store, ToCore); got != 1 {
		t.Errorf("store->core flits = %d, want 1", got)
	}
}

func TestLatencyRespected(t *testing.T) {
	n, _ := newNet(10, 16)
	r := &mem.Request{ID: 1}
	n.Push(ToMem, r)
	n.Tick(5) // injected at cycle 5, arrives at 15
	for now := uint64(6); now < 15; now++ {
		n.Tick(now)
		if got := n.PopArrived(ToMem); got != nil {
			t.Fatalf("packet arrived early at cycle %d", now)
		}
	}
	n.Tick(15)
	if got := n.PopArrived(ToMem); got != r {
		t.Fatal("packet did not arrive at latency boundary")
	}
	if got := n.PopArrived(ToMem); got != nil {
		t.Fatal("duplicate arrival")
	}
}

func TestBandwidthLimitsInjection(t *testing.T) {
	// Responses are 5 flits; with bandwidth 8 only one response can inject
	// per cycle.
	n, _ := newNet(1, 8)
	r1, r2 := &mem.Request{ID: 1}, &mem.Request{ID: 2}
	n.Push(ToCore, r1)
	n.Push(ToCore, r2)
	n.Tick(0) // only r1 fits (5 <= 8, then 5 > 3)
	n.Tick(1) // r2 injected; r1 arrives
	if got := n.PopArrived(ToCore); got != r1 {
		t.Fatal("r1 not delivered first")
	}
	if got := n.PopArrived(ToCore); got != nil {
		t.Fatal("r2 delivered too early despite bandwidth limit")
	}
	n.Tick(2)
	if got := n.PopArrived(ToCore); got != r2 {
		t.Fatal("r2 not delivered after bandwidth delay")
	}
}

func TestWidePacketStreamsAcrossCycles(t *testing.T) {
	// A 5-flit response on a 1-flit/cycle network must stream over five
	// cycles rather than wait forever (found by fuzzing: configs with
	// bandwidth below the data-packet size livelocked on the first miss).
	n, st := newNet(0, 1)
	r1, r2 := &mem.Request{ID: 1}, &mem.Request{ID: 2}
	n.Push(ToCore, r1)
	n.Push(ToCore, r2)
	for now := uint64(0); now < 4; now++ {
		n.Tick(now)
		if got := n.PopArrived(ToCore); got != nil {
			t.Fatalf("packet delivered at cycle %d before all flits sent", now)
		}
	}
	n.Tick(4) // fifth flit leaves; latency 0 means it arrives now
	if got := n.PopArrived(ToCore); got != r1 {
		t.Fatal("r1 not delivered after streaming its flits")
	}
	if st.ICNTFlits != 5 {
		t.Errorf("ICNTFlits = %d, want 5 (r2 not yet injected)", st.ICNTFlits)
	}
	// r2 begins streaming only after r1 completes.
	for now := uint64(5); now < 9; now++ {
		n.Tick(now)
		if got := n.PopArrived(ToCore); got != nil {
			t.Fatalf("r2 delivered early at cycle %d", now)
		}
	}
	n.Tick(9)
	if got := n.PopArrived(ToCore); got != r2 {
		t.Fatal("r2 not delivered after streaming its flits")
	}
	if st.ICNTFlits != 10 {
		t.Errorf("ICNTFlits = %d, want 10", st.ICNTFlits)
	}
}

func TestStreamingSharesBudgetWithinCycle(t *testing.T) {
	// Bandwidth 3, latency 0: a 5-flit response streams 3+2 flits over two
	// cycles, and the leftover budget in the second cycle injects the
	// following 1-flit packet in the same direction.
	n, _ := newNet(0, 3)
	resp := &mem.Request{ID: 1}             // load response: 5 flits
	ack := &mem.Request{ID: 2, Store: true} // store ack: 1 flit
	n.Push(ToCore, resp)
	n.Push(ToCore, ack)
	n.Tick(0)
	if got := n.PopArrived(ToCore); got != nil {
		t.Fatal("response delivered with only 3 of 5 flits sent")
	}
	n.Tick(1)
	if got := n.PopArrived(ToCore); got != resp {
		t.Fatal("response not delivered once its last flits were sent")
	}
	if got := n.PopArrived(ToCore); got != ack {
		t.Fatal("ack should inject from the second cycle's leftover budget")
	}
}

func TestDirectionsIndependent(t *testing.T) {
	n, _ := newNet(1, 16)
	req := &mem.Request{ID: 1}
	resp := &mem.Request{ID: 2}
	n.Push(ToMem, req)
	n.Push(ToCore, resp)
	n.Tick(0)
	n.Tick(1)
	if got := n.PopArrived(ToMem); got != req {
		t.Error("request direction broken")
	}
	if got := n.PopArrived(ToCore); got != resp {
		t.Error("response direction broken")
	}
}

func TestFlitAccounting(t *testing.T) {
	n, st := newNet(1, 100)
	n.Push(ToMem, &mem.Request{})            // 1 flit
	n.Push(ToMem, &mem.Request{Store: true}) // 5 flits
	n.Push(ToCore, &mem.Request{})           // 5 flits
	n.Tick(0)
	if st.ICNTFlits != 11 {
		t.Errorf("ICNTFlits = %d, want 11", st.ICNTFlits)
	}
	if st.ICNTDataFlits != 11 {
		t.Errorf("ICNTDataFlits = %d, want 11", st.ICNTDataFlits)
	}
	n.AddBackgroundFlits(7)
	if st.ICNTFlits != 18 {
		t.Errorf("ICNTFlits after background = %d, want 18", st.ICNTFlits)
	}
	if st.ICNTDataFlits != 11 {
		t.Errorf("background flits leaked into data flits: %d", st.ICNTDataFlits)
	}
}

func TestFIFOOrderPreservedWithinDirection(t *testing.T) {
	n, _ := newNet(3, 1000)
	var pushed []*mem.Request
	for i := 0; i < 20; i++ {
		r := &mem.Request{ID: uint64(i)}
		pushed = append(pushed, r)
		n.Push(ToMem, r)
	}
	n.Tick(0)
	n.Tick(3)
	for i := 0; i < 20; i++ {
		got := n.PopArrived(ToMem)
		if got != pushed[i] {
			t.Fatalf("arrival %d out of order", i)
		}
	}
}

func TestPending(t *testing.T) {
	n, _ := newNet(2, 16)
	if n.Pending() {
		t.Error("fresh network pending")
	}
	r := &mem.Request{}
	n.Push(ToMem, r)
	if !n.Pending() {
		t.Error("waiting packet not pending")
	}
	n.Tick(0)
	if !n.Pending() {
		t.Error("in-flight packet not pending")
	}
	n.Tick(2)
	n.PopArrived(ToMem)
	if n.Pending() {
		t.Error("drained network still pending")
	}
}

// TestArrivalExactlyLatencyAfterInjection drives mixed one-flit and
// data packets in both directions the way the engine does — every
// cycle while a packet waits, otherwise jumping irregular gaps capped
// at NextArrival, as fast-forward does — and checks that each packet
// pops exactly latency cycles after the Tick that injected it, in
// injection order. Bandwidths 1 and 2 stream the 5-flit packets across
// cycles; 64 keeps enough packets on the wire to grow and wrap the
// in-flight ring.
func TestArrivalExactlyLatencyAfterInjection(t *testing.T) {
	const latency, steps = 7, 300
	type sent struct {
		req *mem.Request
		at  uint64 // cycle of the injecting Tick
	}
	for _, bw := range []int{1, 2, 5, 64} {
		n, _ := newNet(latency, bw)
		var waiting [2][]*mem.Request
		var flying [2][]sent
		pushed, delivered := 0, 0
		now := uint64(0)
		for i := 0; i < steps || n.Pending(); i++ {
			if i < steps {
				for d, k := range [2]int{ToMem: i * 7 % 4, ToCore: i * 5 % 3} {
					for j := 0; j < k; j++ {
						r := &mem.Request{ID: uint64(pushed), Store: (i+j+d)%3 == 0}
						pushed++
						waiting[d] = append(waiting[d], r)
						n.Push(Direction(d), r)
					}
				}
			}
			n.Tick(now)
			for d := range waiting {
				k := len(waiting[d]) - n.dirs[d].waiting.Len() // injected by this Tick
				for _, r := range waiting[d][:k] {
					flying[d] = append(flying[d], sent{req: r, at: now})
				}
				waiting[d] = waiting[d][k:]
			}
			wantNext, wantOK := uint64(0), false
			for d := range flying {
				for r := n.PopArrived(Direction(d)); r != nil; r = n.PopArrived(Direction(d)) {
					if len(flying[d]) == 0 || flying[d][0].req != r {
						t.Fatalf("bw %d dir %d cycle %d: popped request %d out of injection order", bw, d, now, r.ID)
					}
					if got := now - flying[d][0].at; got != latency {
						t.Fatalf("bw %d dir %d: request %d injected at %d popped at %d, want %d cycles of flight",
							bw, d, r.ID, flying[d][0].at, now, latency)
					}
					flying[d] = flying[d][1:]
					delivered++
				}
				if got := n.dirs[d].inFlight.Len(); got != len(flying[d]) {
					t.Fatalf("bw %d dir %d cycle %d: %d in flight, want %d", bw, d, now, got, len(flying[d]))
				}
				if len(flying[d]) > 0 {
					if at := flying[d][0].at + latency; at <= now {
						t.Fatalf("bw %d dir %d cycle %d: arrival due at %d was not popped", bw, d, now, at)
					} else if !wantOK || at < wantNext {
						wantNext, wantOK = at, true
					}
				}
			}
			next, ok := n.NextArrival()
			if ok != wantOK || next != wantNext {
				t.Fatalf("bw %d cycle %d: NextArrival = %d, %v, want %d, %v", bw, now, next, ok, wantNext, wantOK)
			}
			if n.HasWaiting() {
				now++
			} else if gap := 1 + uint64(i*11%9); ok && next < now+gap {
				now = next
			} else {
				now += gap
			}
		}
		if delivered != pushed {
			t.Errorf("bw %d: delivered %d of %d packets", bw, delivered, pushed)
		}
	}
}
