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
	// spare holds the requests of earlier runs (see Reset). Get reaches
	// for them only when free is empty, where a fresh pool would
	// allocate, so free — the pool.free metric column — moves exactly as
	// it does in a fresh pool.
	spare []*Request
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed Request, reusing a recycled one when available.
func (p *Pool) Get() *Request {
	if p == nil {
		return new(Request)
	}
	list := &p.free
	if len(p.free) == 0 {
		if len(p.spare) == 0 {
			return new(Request)
		}
		list = &p.spare
	}
	n := len(*list) - 1
	r := (*list)[n]
	(*list)[n] = nil
	*list = (*list)[:n]
	*r = Request{}
	return r
}

// Reset starts the pool over for a new run: the free list is empty, as
// in a new pool, and what it held is kept aside for Get. Requests a run
// left in flight are not the pool's and are not recovered.
func (p *Pool) Reset() {
	p.spare = append(p.spare, p.free...)
	clear(p.free)
	p.free = p.free[:0]
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
