package core

import "repro/internal/metrics"

// RegisterMetrics registers the cache's counters and the occupancy
// gauges of its subcomponents under prefix (e.g. "sm3.l1d"), then the
// active policy's own instrumentation (VTA occupancy, PDPT levels,
// predictor counters — whatever the scheme maintains). Counters are
// registered by pointer into the stats the cache already maintains, so
// the access path is byte-for-byte the code that runs with metrics
// disabled.
func (c *L1D) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+".accesses", &c.st.L1DAccesses)
	reg.Counter(prefix+".hits", &c.st.L1DHits)
	reg.Counter(prefix+".misses", &c.st.L1DMisses)
	reg.Counter(prefix+".bypasses", &c.st.L1DBypasses)
	reg.Counter(prefix+".evictions", &c.st.L1DEvictions)
	reg.Counter(prefix+".stalls", &c.st.L1DStalls)
	reg.Counter(prefix+".traffic", &c.st.L1DTraffic)
	reg.Counter(prefix+".compulsory", &c.st.L1DCompulsory)
	reg.Counter(prefix+".stores", &c.st.StoreAccesses)
	reg.Counter(prefix+".vta_hits", &c.st.VTAHits)
	c.mshr.RegisterMetrics(reg, prefix+".mshr")
	c.missQ.RegisterMetrics(reg, prefix+".missq")
	c.bypsQ.RegisterMetrics(reg, prefix+".bypsq")
	reg.IntGauge(prefix+".hitq.depth", c.hitQ.Len)
	c.pol.RegisterMetrics(reg, prefix)
}
