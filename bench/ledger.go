package main

import (
	"fmt"
	"sync"
	"time"
)

// ledger collects the per-layer metrics of a traced run. A nil *ledger
// drops everything, which is how end-to-end runs skip the bookkeeping.
type ledger struct {
	mu   sync.Mutex
	vals map[string]float64
}

func newLedger() *ledger { return &ledger{vals: map[string]float64{}} }

func (l *ledger) set(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.vals[name] = v
	l.mu.Unlock()
}

// setPercentile records the nearest-rank percentile of ds in
// milliseconds. Ledger rows are logged, not judged, so the sample-support
// rule does not apply; an empty sample records nothing.
func (l *ledger) setPercentile(name string, ds []time.Duration, pct float64) {
	if v, err := percentile(sortedMS(ds), pct, 0); err == nil {
		l.set(name, v)
	}
}

// add accumulates a count across rounds and workloads.
func (l *ledger) add(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.vals[name] += v
	l.mu.Unlock()
}

// metrics renders the ledger as the per-layer result set; every metric
// of the vocabulary must have been measured.
func (l *ledger) metrics() (map[string]metricValue, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]metricValue{}
	for _, d := range perLayer {
		v, ok := l.vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
