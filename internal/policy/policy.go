// Package policy defines the pluggable L1D management-policy interface
// and the registry of compiled-in schemes.
//
// The L1D controller in internal/core owns the mechanism — tag array,
// MSHRs, queues, hit/miss/bypass accounting — and takes every decision
// from a registry entry: the Spec says whether a blocked access stalls
// or bypasses and which lines are eligible victims, both bound when the
// cache is built, and the Policy it constructs says whether a miss is
// admitted and what protection state rides along on hits, misses and
// fills. The four schemes evaluated by the paper (Baseline,
// Stall-Bypass, Global-Protection, DLP) are registry entries like any
// other, so a new scheme is data — one file and one Spec — rather than
// new branches in the cache's hot path.
//
// The paper's protection hardware (VTA, PDPT, sampler) lives here too:
// it is policy state, instantiated only by the schemes that use it, so
// non-protecting policies pay nothing for it.
package policy

import (
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Host is the controller-owned state a policy may observe and annotate.
// The cache constructs one Host per L1D and passes it to the scheme's
// constructor; policies keep the pointer and never copy the struct.
type Host struct {
	Cfg    *config.Config
	Mapper *addr.Mapper
	Tags   *cache.TagArray
	Stats  *stats.Stats
	Now    func() uint64 // current core cycle
}

// Block says why an access could not be serviced in place.
type Block uint8

const (
	// BlockNoMerge: the line is in flight and its MSHR entry cannot
	// accept another merged request.
	BlockNoMerge Block = iota
	// BlockStructural: no free MSHR entry or miss-queue slot.
	BlockStructural
	// BlockNoVictim: every line in the set is reserved or protected.
	BlockNoVictim
)

// Decision resolves a blocked access.
type Decision uint8

const (
	// Stall rejects the access; the LD/ST unit retries next cycle.
	Stall Decision = iota
	// Bypass sends the access around the cache on the bypass queue.
	Bypass
)

// The stall-vs-bypass tables the registered schemes use, indexed by
// Block. The zero table stalls on everything: the unmodified L1D.
var (
	// alwaysBypass never stalls: whatever blocks the access, it goes
	// around the cache.
	alwaysBypass = [3]Decision{Bypass, Bypass, Bypass}
	// bypassNoVictim sends a miss into a fully reserved-or-protected set
	// around the cache rather than waiting for protection to expire
	// (§4.1.1); resource hazards stall as on the baseline.
	bypassNoVictim = [3]Decision{BlockNoVictim: Bypass}
)

// Policy is the per-L1D decision maker. One instance is built per cache
// (never shared across SMs), so implementations need no locking. All
// methods but the last two are on the simulation hot path:
// implementations must not allocate in steady state.
type Policy interface {
	// OnAccess runs once for every accepted (non-stalled) access — hit,
	// serviced miss, merged miss, or bypass — before the outcome-specific
	// hook. Protection schemes advance their sampling clock and age the
	// queried set's protected lines here.
	OnAccess(req *mem.Request, set int)

	// NoteInstructions feeds executed-instruction counts into schemes
	// with an instruction-driven sampling clock (§4.1.4).
	NoteInstructions(n uint64)

	// Admit reports whether a serviceable miss should allocate a line;
	// false sends the request down the bypass path. Called after victim
	// selection succeeds, so an admitted request always has resources.
	Admit(req *mem.Request, set int) bool

	// OnHit runs on a tag hit, before LRU update. The policy may
	// re-attribute and re-protect the line.
	OnHit(req *mem.Request, set int, ln *cache.Line)

	// OnMiss runs once per serviced miss, after the line is reserved and
	// attributed to the requesting instruction: ln is the reserved line,
	// evicted the one it displaced (Valid false when the way was empty).
	// Victim-tag bookkeeping and insertion-time protection go here; a
	// scheme that both looks the incoming tag up in a victim array and
	// inserts the displaced one chooses the order, and the order is
	// behaviour — the insert can push out the entry the lookup wants.
	OnMiss(req *mem.Request, set int, ln *cache.Line, evicted cache.Line)

	// OnBypass runs when a request is sent around the cache.
	OnBypass(req *mem.Request, set int)

	// OnFill runs when the fetch returns and the reserved line becomes
	// valid (fill-time protection goes here).
	OnFill(req *mem.Request, ln *cache.Line)

	// CheckInvariants verifies the policy's structural invariants,
	// including any constraints it imposes on the tag array's protection
	// fields. It must never mutate state.
	CheckInvariants() error

	// RegisterMetrics registers the policy's observability surface under
	// prefix (e.g. "sm3.l1d"); counters must be registered by pointer so
	// the hot path is identical with metrics disabled.
	RegisterMetrics(reg *metrics.Registry, prefix string)
}

// PDPTCarrier is the capability sub-interface of schemes built on the
// paper's protection-distance prediction table (Global-Protection and
// DLP). Tools that introspect PD state (pdtrace, tests) type-assert on
// it; other policies don't carry the hardware at all.
type PDPTCarrier interface {
	PDPT() *PDPT
}

// Spec is one registry entry: a compiled-in scheme with its display
// name, CLI aliases, paper membership, provenance, the two decisions the
// cache binds when it is built, and the constructor of the rest.
type Spec struct {
	Name    config.Policy // display name; also the canonical CLI spelling
	Aliases []string      // extra accepted CLI spellings (lower-case)
	Paper   bool          // one of the four schemes the paper evaluates
	Cite    string        // one-line provenance

	// Blocked says, per Block reason, whether an access the mechanism
	// cannot service stalls or bypasses. It is data, not a hook: the
	// cache copies the table and a stalled access calls nothing.
	Blocked [3]Decision

	// Eligible builds the replacement-eligibility predicate over the
	// cache's host; nil means plain LRU. Called once per cache — the
	// predicate must stay valid for the cache's lifetime. A scheme with
	// a predicate may not Stall on BlockNoVictim (see check).
	Eligible func(h *Host) func(*cache.Line) bool

	New func(h *Host) Policy
}

// specs is the registry, in plotting order: the paper's four schemes
// first (the order its figures use), then the extensions.
var specs = []Spec{
	{
		Name:    config.PolicyBaseline,
		Aliases: []string{"base"},
		Paper:   true,
		Cite:    "stall-and-retry LRU, the unmodified Fermi L1D (paper §5.3)",
		New:     func(h *Host) Policy { return &baseline{h: h} },
	},
	{
		Name:    config.PolicyStallBypass,
		Aliases: []string{"sb"},
		Paper:   true,
		Cite:    "bypass-on-stall comparator (paper §5.3)",
		Blocked: alwaysBypass,
		New:     func(h *Host) Policy { return &stallBypass{h: h} },
	},
	{
		Name:     config.PolicyGlobalProtection,
		Aliases:  []string{"gp"},
		Paper:    true,
		Cite:     "single global protection distance, after Duong et al. PDP (paper §5.3)",
		Blocked:  bypassNoVictim,
		Eligible: plExpired,
		New:      func(h *Host) Policy { return newProtect(h, true) },
	},
	{
		Name:     config.PolicyDLP,
		Paper:    true,
		Cite:     "per-instruction dynamic line protection, the paper's contribution (§4)",
		Blocked:  bypassNoVictim,
		Eligible: plExpired,
		New:      func(h *Host) Policy { return newProtect(h, false) },
	},
	{
		Name:    config.PolicyATA,
		Aliases: []string{"ata-cache"},
		Cite:    "aggregated-tag-array admission, after ATA-Cache (arXiv:2302.10638)",
		Blocked: alwaysBypass,
		New:     func(h *Host) Policy { return newATA(h) },
	},
	{
		Name:     config.PolicyCCWS,
		Aliases:  []string{"ccws"},
		Cite:     "VTA-driven lost-locality protection, after Rogers et al. CCWS (MICRO 2012)",
		Blocked:  bypassNoVictim,
		Eligible: ccwsEligible,
		New:      func(h *Host) Policy { return newCCWS(h) },
	},
	{
		Name:    config.PolicyReusePredictor,
		Aliases: []string{"reuse-predictor", "pred"},
		Cite:    "online per-PC dead-block bypass, in the spirit of learned GPU caching (arXiv:2509.20979)",
		Blocked: bypassNoVictim,
		New:     func(h *Host) Policy { return newReusePredictor(h) },
	},
}

// check refuses the one combination of the bound decisions the cache
// cannot honour. A stalled access is parked, not replayed, until an MSHR,
// miss-queue or tag event moves the cache (core.L1D.Epoch) — but an
// eligibility predicate may read the clock (ccwsEligible does), and a
// stall for want of a victim it alone refused could then end with no
// event at all. No scheme here stalls there; one that wants to has to
// give the park a clock bound first.
func (sp *Spec) check() error {
	if sp.Eligible != nil && sp.Blocked[BlockNoVictim] == Stall {
		return fmt.Errorf("policy: %q filters victims and stalls when none is eligible; a filtered set must bypass", sp.Name)
	}
	return nil
}

// builtinSpecs is the count of compiled-in entries; everything past it
// arrived through Register and may be Unregister-ed.
var builtinSpecs = len(specs)

// Specs returns the registry in plotting order. The slice is shared:
// callers must not mutate it.
func Specs() []Spec { return specs }

// Register appends an out-of-tree scheme to the registry, making it
// visible to Lookup, Parse, the CLIs and the engine exactly like a
// compiled-in entry. This is the policyinit seam: an external file (or
// a test building a scratch policy) self-registers from its init
// function. Registration is not synchronized with concurrent readers —
// call it during process init or test setup, before simulations start.
// Names and aliases must not collide with existing spellings.
func Register(sp Spec) error {
	if sp.Name == "" {
		return fmt.Errorf("policy: Register with empty name")
	}
	if sp.New == nil {
		return fmt.Errorf("policy: Register %q with nil constructor", sp.Name)
	}
	if err := sp.check(); err != nil {
		return err
	}
	taken := func(s string) bool {
		for _, ex := range specs {
			if strings.EqualFold(string(ex.Name), s) {
				return true
			}
			for _, al := range ex.Aliases {
				if strings.EqualFold(al, s) {
					return true
				}
			}
		}
		return false
	}
	if taken(string(sp.Name)) {
		return fmt.Errorf("policy: %q is already registered", sp.Name)
	}
	for _, al := range sp.Aliases {
		if taken(al) {
			return fmt.Errorf("policy: alias %q of %q is already registered", al, sp.Name)
		}
	}
	specs = append(specs, sp)
	return nil
}

// Unregister removes a previously Register-ed scheme by name. It
// refuses to remove compiled-in entries, so a test tearing down its
// scratch policy cannot strip a real one. Returns whether an entry was
// removed.
func Unregister(name config.Policy) bool {
	for i := builtinSpecs; i < len(specs); i++ {
		if specs[i].Name == name {
			specs = append(specs[:i], specs[i+1:]...)
			return true
		}
	}
	return false
}

// All lists every registered policy name, paper schemes first.
func All() []config.Policy {
	out := make([]config.Policy, len(specs))
	for i, sp := range specs {
		out[i] = sp.Name
	}
	return out
}

// Paper lists the four paper schemes in the order the figures plot them.
func Paper() []config.Policy {
	var out []config.Policy
	for _, sp := range specs {
		if sp.Paper {
			out = append(out, sp.Name)
		}
	}
	return out
}

// Lookup finds the registry entry for a policy name.
func Lookup(name config.Policy) (Spec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return Spec{}, false
}

// Parse resolves a CLI spelling — a registered name or alias, case
// insensitively — to the canonical policy name.
func Parse(s string) (config.Policy, error) {
	want := strings.ToLower(strings.TrimSpace(s))
	for _, sp := range specs {
		if strings.ToLower(string(sp.Name)) == want {
			return sp.Name, nil
		}
		for _, al := range sp.Aliases {
			if al == want {
				return sp.Name, nil
			}
		}
	}
	return "", fmt.Errorf("unknown policy %q (want %s)", s, strings.Join(spellings(), "|"))
}

// spellings lists the canonical CLI spellings for error messages and
// flag help.
func spellings() []string {
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = strings.ToLower(string(sp.Name))
	}
	return out
}

// Usage returns the "a|b|c" spelling list for CLI flag help.
func Usage() string { return strings.Join(spellings(), " | ") }

// Base provides no-op implementations of every optional hook; schemes
// embed it and override what they need.
type Base struct{}

func (Base) OnAccess(*mem.Request, int)                        {}
func (Base) NoteInstructions(uint64)                           {}
func (Base) Admit(*mem.Request, int) bool                      { return true }
func (Base) OnHit(*mem.Request, int, *cache.Line)              {}
func (Base) OnMiss(*mem.Request, int, *cache.Line, cache.Line) {}
func (Base) OnBypass(*mem.Request, int)                        {}
func (Base) OnFill(*mem.Request, *cache.Line)                  {}
func (Base) RegisterMetrics(*metrics.Registry, string)         {}
