package l2

import "repro/internal/metrics"

// RegisterMetrics registers the partition's hit/miss and DRAM counters
// plus its queue and MSHR occupancy gauges under prefix (e.g. "l2p7").
func (p *Partition) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+".accesses", &p.st.L2Accesses)
	reg.Counter(prefix+".hits", &p.st.L2Hits)
	reg.Counter(prefix+".misses", &p.st.L2Misses)
	reg.Counter(prefix+".dram_reads", &p.st.DRAMReads)
	reg.Counter(prefix+".dram_writes", &p.st.DRAMWrites)
	reg.IntGauge(prefix+".inq.depth", func() int { return p.inQ.Len() })
	reg.IntGauge(prefix+".mshr.entries", p.liveMSHRs)
	reg.IntGauge(prefix+".events.pending", func() int { return p.hits.Len() + len(p.fills) })
	reg.IntGauge(prefix+".responses.ready", func() int { return p.responses.Len() })
}
