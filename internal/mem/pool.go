package mem

// Pool is a free list of Requests. The components that create requests
// (the SM LD/ST units) and the delivery points that consume them (the
// SM response callback for loads, the L2 write-through sink for stores)
// recycle through a pool, so a simulation's steady state reuses a small
// working set of Request objects instead of allocating one per memory
// instruction. Pools are unlocked: each engine owns one, shared by its
// SMs and partitions, which all run on the engine's goroutine. Separate
// engines (parallel runner workers) each own their own pool.
//
// A nil *Pool is valid and simply allocates/discards, which keeps
// component constructors usable from tests that don't care about
// pooling.
type Pool struct {
	free []*Request
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed Request, reusing a recycled one when available.
func (p *Pool) Get() *Request {
	if p == nil || len(p.free) == 0 {
		return new(Request)
	}
	n := len(p.free) - 1
	r := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	*r = Request{}
	return r
}

// Put recycles a Request whose lifetime has ended. The caller must hold
// the only live reference: a double Put (or a Put of a request still
// queued somewhere) would hand the same object to two owners and
// corrupt the simulation.
func (p *Pool) Put(r *Request) {
	if p == nil || r == nil {
		return
	}
	p.free = append(p.free, r)
}
