// Package metrics is the cycle-domain observability layer of the
// simulator: a pull-model registry of named counters and gauges that
// core components (L1D, VTA, PDPT, MSHR queues, L2 partitions, the
// crossbar, SM schedulers, the request pool) register into at engine
// construction time, plus sinks that receive sampled rows.
//
// The design goal is that the registry is provably free when disabled:
//
//   - Registration hands the registry a *uint64 pointing at a counter
//     the component already maintains (usually a stats.Stats field) or
//     a closure reading an existing length/level. The component's hot
//     path never calls into this package — it keeps incrementing the
//     same word it always did.
//   - Sampling is driven from the outside (the engine's cycle loop)
//     by reading through those pointers into a row buffer allocated
//     once at Seal time. Sample performs zero allocations.
//   - When no sink is configured the engine never builds a registry at
//     all, so the disabled cost is exactly one nil check per sampling
//     boundary.
package metrics

import (
	"fmt"
	"slices"
)

// DefaultEvery is the sampling period, in cycles, used when a Config
// does not specify one. It matches the engine's context-check stride so
// a default-rate sample never lands inside a fast-forwardable window
// larger than one the engine would already have clamped.
const DefaultEvery = 4096

// Config enables cycle-domain sampling on a simulation. It travels in
// sim.Options; a nil Config (or nil Sink) disables sampling entirely.
type Config struct {
	// Sink receives the header and sampled rows. Nil disables sampling.
	Sink Sink
	// Every is the sampling period in cycles; 0 means DefaultEvery.
	Every uint64
	// Label names the series, e.g. "CFD under DLP(s)". Rows from one
	// simulation all carry the same label, so a single sink can
	// multiplex many concurrent simulations.
	Label string
}

// Enabled reports whether the config actually turns sampling on.
func (c *Config) Enabled() bool { return c != nil && c.Sink != nil }

// Interval returns the effective sampling period.
func (c *Config) Interval() uint64 {
	if c == nil || c.Every == 0 {
		return DefaultEvery
	}
	return c.Every
}

// Sink receives sampled metric rows. Begin is called once per series
// before any Row. Implementations must tolerate concurrent calls for
// different series (the runner samples many simulations in parallel)
// and a repeated Begin for the same series (two simulated jobs that
// share a label announce one series twice).
//
// The values slice passed to Row is reused by the sampler for the next
// row: a sink that retains values past the call must copy them.
type Sink interface {
	Begin(series string, names []string)
	Row(series string, cycle uint64, values []uint64)
}

// source is one registered metric: exactly one of ptr/fn is set.
type source struct {
	ptr *uint64
	fn  func() uint64
}

// Registry holds the registered counters and gauges of one simulation
// engine. It is not safe for concurrent registration; build it on one
// goroutine, Seal it, then Sample from one goroutine at a time (the
// engine samples only from its coordinating goroutine).
type Registry struct {
	names  []string
	src    []source
	row    []uint64
	sealed bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Reset empties the registry and unseals it for a new round of
// registration, keeping its buffers.
func (r *Registry) Reset() {
	clear(r.names)
	clear(r.src)
	r.names, r.src, r.row, r.sealed = r.names[:0], r.src[:0], r.row[:0], false
}

func (r *Registry) add(name string, s source) {
	if r.sealed {
		panic("metrics: registration after Seal")
	}
	if name == "" {
		panic("metrics: empty metric name")
	}
	for _, n := range r.names {
		if n == name {
			panic(fmt.Sprintf("metrics: duplicate metric %q", name))
		}
	}
	r.names = append(r.names, name)
	r.src = append(r.src, s)
}

// Counter registers a monotonically increasing counter by pointer. The
// component keeps incrementing *v as before; Sample reads through the
// pointer.
func (r *Registry) Counter(name string, v *uint64) {
	if v == nil {
		panic("metrics: nil counter pointer")
	}
	r.add(name, source{ptr: v})
}

// Gauge registers an instantaneous level via a closure evaluated at
// sample time. The closure must be cheap and allocation-free.
func (r *Registry) Gauge(name string, fn func() uint64) {
	if fn == nil {
		panic("metrics: nil gauge func")
	}
	r.add(name, source{fn: fn})
}

// IntGauge registers a gauge backed by an int-returning closure, the
// common case for queue depths. Negative values clamp to zero.
func (r *Registry) IntGauge(name string, fn func() int) {
	r.Gauge(name, func() uint64 {
		n := fn()
		if n < 0 {
			return 0
		}
		return uint64(n)
	})
}

// Seal freezes the registry and allocates the reusable row buffer. It
// must be called before Sample; further registration panics.
func (r *Registry) Seal() {
	r.sealed = true
	r.row = slices.Grow(r.row[:0], len(r.src))[:len(r.src)]
}

// Names returns the registered metric names in registration order. The
// returned slice is the registry's own; callers must not mutate it.
func (r *Registry) Names() []string { return r.names }

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.src) }

// Sample reads every registered source into the registry's reusable
// row buffer and returns it. The buffer is overwritten by the next
// Sample call; it performs no allocations.
func (r *Registry) Sample() []uint64 {
	if !r.sealed {
		panic("metrics: Sample before Seal")
	}
	for i, s := range r.src {
		if s.ptr != nil {
			r.row[i] = *s.ptr
		} else {
			r.row[i] = s.fn()
		}
	}
	return r.row
}
