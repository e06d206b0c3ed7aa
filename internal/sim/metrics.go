package sim

import (
	"strconv"

	"repro/internal/metrics"
)

// registerMetrics fills the engine's metrics registry: every component
// registers the counters it already maintains (by pointer into its
// stats block) and gauges over its queue depths, then the registry is
// sealed — the row buffer is allocated once, and sampling from the run
// loop performs no allocations. Called from Reset only when
// Options.Metrics carries a sink; otherwise e.mreg is nil and the run
// loop's sampling checks reduce to one nil test. The registry of the
// engine's last sampled run is emptied and filled again.
func (e *Engine) registerMetrics(m *metrics.Config) {
	reg := e.mreg
	if reg == nil {
		reg = metrics.NewRegistry()
	} else {
		reg.Reset()
	}
	e.net.RegisterMetrics(reg, "icnt")
	for i, p := range e.parts {
		p.RegisterMetrics(reg, "l2p"+strconv.Itoa(i))
	}
	for i, s := range e.sms {
		s.RegisterMetrics(reg, "sm"+strconv.Itoa(i))
	}
	e.pool.RegisterMetrics(reg, "pool")
	reg.Seal()

	e.mreg = reg
	e.msink = m.Sink
	e.mevery = m.Interval()
	e.mlabel = m.Label
	if e.mlabel == "" {
		e.mlabel = "sim"
	}
	e.msink.Begin(e.mlabel, reg.Names())
}

// emitSample captures one row attributed to the given cycle. The row
// buffer is the registry's reusable slice; sinks copy if they retain.
func (e *Engine) emitSample(cycle uint64) {
	// A parked LD/ST head owes the stall counter the cycles it has slept
	// through; the row shows what replaying them would have counted.
	for _, s := range e.sms {
		s.FlushStalls(cycle)
	}
	e.msink.Row(e.mlabel, cycle, e.mreg.Sample())
	e.mlast = cycle
}
