package interconnect

import "repro/internal/metrics"

// RegisterMetrics registers the crossbar's flit counters and the
// queue levels of both directions under prefix (e.g. "icnt").
func (n *Network) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+".flits", &n.st.ICNTFlits)
	reg.Counter(prefix+".data_flits", &n.st.ICNTDataFlits)
	for d, name := range [2]string{ToMem: "to_mem", ToCore: "to_core"} {
		dir := &n.dirs[d]
		reg.IntGauge(prefix+"."+name+".waiting", dir.waiting.Len)
		reg.IntGauge(prefix+"."+name+".in_flight", func() int { return dir.inFlight.Len() })
	}
}
