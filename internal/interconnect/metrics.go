package interconnect

import "repro/internal/metrics"

// RegisterMetrics registers the crossbar's flit counters and the
// queue levels of both directions under prefix (e.g. "icnt").
func (n *Network) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+".flits", &n.st.ICNTFlits)
	reg.Counter(prefix+".data_flits", &n.st.ICNTDataFlits)
	for d, name := range [2]string{ToMem: "to_mem", ToCore: "to_core"} {
		dir := &n.dirs[d]
		reg.IntGauge(prefix+"."+name+".waiting", func() int { return dir.count })
		reg.IntGauge(prefix+"."+name+".in_flight", func() int { return dir.inFlight.Len() })
	}
}

// RegisterLaneMetrics registers the lane-merge observability gauges:
// how many injection-queue segments (merged lanes plus any open Push
// tail) each direction currently holds, and how many recycled segment
// buffers are banked. These live in the engine-parallelism namespace
// ("phase.*") because their values depend on the span layout — i.e. on
// Options.Cores — unlike every simulation-domain column.
func (n *Network) RegisterLaneMetrics(reg *metrics.Registry, prefix string) {
	for d, name := range [2]string{ToMem: "to_mem", ToCore: "to_core"} {
		dir := &n.dirs[d]
		reg.IntGauge(prefix+"."+name+".segments", func() int { return dir.segs.Len() })
		reg.IntGauge(prefix+"."+name+".free_segments", func() int { return len(dir.free) })
	}
}
