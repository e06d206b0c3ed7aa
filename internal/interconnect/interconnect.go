// Package interconnect models the crossbar between the SM L1D caches and
// the memory partitions: fixed one-way latency, bounded per-cycle flit
// bandwidth in each direction, and flit accounting for the paper's
// Figure 13 interconnect-traffic metric.
//
// Besides L1D packets, real GPUs route L1I/L1C/L1T traffic over the same
// network; the paper notes (§6.4) this damps the relative traffic
// reduction from L1D bypassing. Callers model that with
// AddBackgroundFlits, which contributes to the traffic counters without
// occupying data bandwidth.
package interconnect

import (
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/stats"
)

// Direction selects a network direction.
type Direction int

const (
	// ToMem carries requests from the SMs to the memory partitions.
	ToMem Direction = iota
	// ToCore carries responses back to the SMs.
	ToCore
)

// packet is one request on the wire. Tick stamps arriveAt = now +
// latency with a constant latency and a non-decreasing now, so injection
// order is arrival order and the in-flight queue needs no sorting: its
// head is always the earliest arrival.
type packet struct {
	req      *mem.Request
	arriveAt uint64
}

// direction is one way through the crossbar: the packets waiting for
// injection, in the order they were pushed, and the packets on the wire.
type direction struct {
	waiting  ring.Queue[*mem.Request]
	inFlight ring.Queue[packet]
	budget   int // flits remaining this cycle
	sent     int // flits of the head waiting packet already on the wire
}

// Network is the crossbar. The engine calls Tick once per ICNT cycle,
// Push to inject packets, and PopArrived to collect deliveries.
type Network struct {
	latency   uint64
	bandwidth int // flits per cycle per direction
	flitBytes int
	lineSize  int
	dirs      [2]direction
	now       uint64
	st        *stats.Stats
}

// New builds a network with the given one-way latency (cycles), per-cycle
// per-direction flit bandwidth, flit size and cache line size (bytes).
// Its flits are counted into st.
func New(latency, bandwidth, flitBytes, lineSize int, st *stats.Stats) *Network {
	n := &Network{st: st}
	n.Reset(latency, bandwidth, flitBytes, lineSize)
	return n
}

// Reset empties both directions, keeping their queues' buffers, and
// re-parameterises the network as New does. The stats are the caller's
// and are left alone.
func (n *Network) Reset(latency, bandwidth, flitBytes, lineSize int) {
	if latency < 0 || bandwidth <= 0 || flitBytes <= 0 || lineSize <= 0 {
		panic("interconnect: invalid parameters")
	}
	n.latency, n.bandwidth, n.flitBytes, n.lineSize = uint64(latency), bandwidth, flitBytes, lineSize
	n.now = 0
	for d := range n.dirs {
		dir := &n.dirs[d]
		dir.waiting.Reset()
		dir.inFlight.Reset()
		dir.budget, dir.sent = bandwidth, 0
	}
}

// FlitsFor returns the flit count of a packet: one header/control flit,
// plus data flits when the packet carries a cache line (stores toward
// memory, load responses toward the core).
func (n *Network) FlitsFor(req *mem.Request, dir Direction) int {
	carriesData := (dir == ToMem && req.Store) || (dir == ToCore && !req.Store)
	if !carriesData {
		return 1
	}
	return 1 + (n.lineSize+n.flitBytes-1)/n.flitBytes
}

// Tick advances the network to cycle now, refreshing per-direction
// bandwidth budgets and injecting waiting packets in FIFO order until the
// budget runs out. Injection is packet-granular: a packet enters flight
// in the cycle whose budget covers all its flits at once. The exception
// is a packet wider than a whole cycle's bandwidth, which can never
// inject that way: it streams instead, holding the head of the queue and
// transmitting budget-many flits per cycle until fully on the wire.
// Without the exception, any bandwidth below the data-packet flit count
// would strand the packet at the port forever; keeping streaming to that
// case leaves sub-bandwidth packet timing — and thus every committed
// golden output — exactly as before.
func (n *Network) Tick(now uint64) {
	n.now = now
	for d := range n.dirs {
		dir := &n.dirs[d]
		dir.budget = n.bandwidth
		for dir.waiting.Len() > 0 && dir.budget > 0 {
			req := *dir.waiting.Front()
			flits := n.FlitsFor(req, Direction(d))
			remaining := flits - dir.sent
			if remaining > dir.budget {
				if flits > n.bandwidth {
					dir.sent += dir.budget
					dir.budget = 0
				}
				break
			}
			dir.budget -= remaining
			dir.sent = 0
			n.countFlits(flits)
			dir.inFlight.Push(packet{req: req, arriveAt: now + n.latency})
			dir.waiting.Pop()
		}
	}
}

func (n *Network) countFlits(flits int) {
	n.st.ICNTFlits += uint64(flits)
	n.st.ICNTDataFlits += uint64(flits)
}

// Push enqueues a packet for injection in the given direction, after
// everything already queued.
func (n *Network) Push(dir Direction, req *mem.Request) {
	n.dirs[dir].waiting.Push(req)
}

// PushBatch pushes a lane of packets in order, clears the lane's slots
// and returns it emptied for the caller's next fill, so the steady state
// allocates nothing once the injection queue has grown.
func (n *Network) PushBatch(dir Direction, batch []*mem.Request) []*mem.Request {
	d := &n.dirs[dir]
	for i, req := range batch {
		d.waiting.Push(req)
		batch[i] = nil
	}
	return batch[:0]
}

// PopArrived returns the next packet that has completed its flight in the
// given direction by the cycle of the last Tick, or nil.
func (n *Network) PopArrived(dir Direction) *mem.Request {
	req, _ := n.PopArrivedBy(dir, n.now)
	return req
}

// PopArrivedBy returns the next packet of the given direction whose
// flight ends at or before cycle by, with the cycle it lands on, or nil.
// The engine's window loop collects a whole window's arrivals with it
// right after the window's first Tick: every packet that can land inside
// a window no longer than the latency plus one is in flight by then.
func (n *Network) PopArrivedBy(dir Direction, by uint64) (req *mem.Request, at uint64) {
	q := &n.dirs[dir].inFlight
	if q.Len() == 0 || q.Front().arriveAt > by {
		return nil, 0
	}
	p := q.Pop()
	return p.req, p.arriveAt
}

// HasWaiting reports whether any packet sits in an injection queue. A
// waiting packet means the next Tick does real work (it will inject),
// so the engine must not fast-forward past it.
func (n *Network) HasWaiting() bool {
	return n.dirs[ToMem].waiting.Len() > 0 || n.dirs[ToCore].waiting.Len() > 0
}

// NextArrival returns the earliest in-flight arrival time across both
// directions. ok is false when nothing is in flight. With empty
// injection queues this is the network's next activity cycle: between
// now and that cycle every Tick is a pure no-op.
func (n *Network) NextArrival() (at uint64, ok bool) {
	for d := range n.dirs {
		if q := &n.dirs[d].inFlight; q.Len() > 0 && (!ok || q.Front().arriveAt < at) {
			at, ok = q.Front().arriveAt, true
		}
	}
	return at, ok
}

// AddBackgroundFlits accounts traffic from the other L1 caches (L1I, L1C,
// L1T) sharing the crossbar. It affects only the traffic counters.
func (n *Network) AddBackgroundFlits(flits uint64) {
	n.st.ICNTFlits += flits
}

// Pending reports whether any packet is waiting or in flight.
func (n *Network) Pending() bool {
	for d := range n.dirs {
		if n.dirs[d].waiting.Len() > 0 || n.dirs[d].inFlight.Len() > 0 {
			return true
		}
	}
	return false
}
