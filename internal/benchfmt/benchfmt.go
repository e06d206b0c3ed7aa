// Package benchfmt is the provenance fingerprint of a measuring host.
// Wall-clock numbers only compare within one machine class, so the
// benchmark harness (bench/) stamps every result and A/A noise table
// with CurrentHost().Fingerprint().
package benchfmt

import (
	"fmt"
	"runtime"
)

// Host describes the machine class a measurement was taken on.
type Host struct {
	NumCPU     int
	GOMAXPROCS int
	GOARCH     string
}

// CurrentHost fingerprints the running machine.
func CurrentHost() *Host {
	return &Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOARCH: runtime.GOARCH}
}

func (h *Host) String() string {
	return fmt.Sprintf("%d cpus, GOMAXPROCS %d, %s", h.NumCPU, h.GOMAXPROCS, h.GOARCH)
}

// Fingerprint returns a short filename-safe slug for the machine
// class, e.g. "amd64-16c16p".
func (h *Host) Fingerprint() string {
	return fmt.Sprintf("%s-%dc%dp", h.GOARCH, h.NumCPU, h.GOMAXPROCS)
}
