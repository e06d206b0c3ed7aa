package core

import (
	"repro/internal/config"
	"repro/internal/policy"
)

// CheckInvariants verifies the cache's invariants at the current cycle:
// the policy's structural properties (PL counters within their field
// width, protection bounded by associativity, PDPT predictions within
// the PD field, VTA geometry — whatever the active scheme maintains)
// plus the stats conservation identity. It is cheap relative to a
// simulated cycle but not free — the engine samples it
// (sim.Options.SelfCheck) rather than calling it every cycle. The check
// never mutates state, so enabling it cannot change simulation results.
// A violation is a *policy.InvariantError.
func (c *L1D) CheckInvariants() error {
	if err := c.pol.CheckInvariants(); err != nil {
		return err
	}
	// Mid-run conservation: every counted access has been classified as
	// exactly one of hit / serviced miss / bypass. Each Access call
	// updates both counters before returning, so the identity holds at
	// every cycle boundary, not just at collection time.
	if err := c.st.CheckConservation(); err != nil {
		return &policy.InvariantError{Component: "stats", Check: "conservation", Detail: err.Error()}
	}
	return nil
}

// Policy returns the management policy the cache runs under, for
// introspection and invariant reporting.
func (c *L1D) Policy() config.Policy { return c.policy }
