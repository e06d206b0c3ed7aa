package mem

import "repro/internal/metrics"

// RegisterMetrics registers the pool's free-list level under prefix.
// The gauge tracks how deep the request free list has grown — a proxy
// for the peak number of in-flight requests the machine has seen.
func (p *Pool) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.IntGauge(prefix+".free", func() int { return len(p.free) })
}
