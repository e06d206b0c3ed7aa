package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Key returns the job's content hash: a stable digest of everything
// that determines the simulation's outcome — the full hardware
// configuration, the policy, the canonicalized engine options, the
// engine's model constants, and the serialized kernel trace. Two jobs
// with equal Key produce identical Stats (the engine is deterministic),
// which is what makes result reuse sound. Labels, self-checking
// (Opts.SelfCheck) and fast-forward disabling
// (Opts.DisableFastForward) are excluded: they are
// presentation and execution policy, not simulation input — results
// are bit-identical at every setting.
//
// A job whose kernel cannot be serialized has no content address; Key
// returns "" and the runner treats the job as uncacheable rather than
// inventing an identity-based key (a pointer address, say) that a later
// allocation or another process could reuse for a different kernel. The
// digest is memoized on the kernel itself (trace.Kernel.Digest), so a
// suite serializes each kernel once and nothing outlives the kernel.
//
// Stream jobs are addressed by the stream's SpecKey — a stable
// description of the generator spec (or the trace file's content hash)
// rather than a digest of the materialized trace. Since streamed and
// precomputed runs of the same trace produce bit-identical stats, a
// KernelStream falls back to the wrapped kernel's digest so the two
// forms share cache entries. A stream with an empty SpecKey — and a
// malformed job setting both Kernel and Stream — is uncacheable.
func (j Job) Key() string {
	kernelLine := ""
	switch {
	case j.Kernel != nil && j.Stream != nil:
		return ""
	case j.Stream != nil:
		if ks, ok := j.Stream.(*trace.KernelStream); ok {
			kd, ok := ks.Kernel().Digest()
			if !ok {
				return ""
			}
			kernelLine = kd
		} else {
			sk := j.Stream.SpecKey()
			if sk == "" {
				return ""
			}
			kernelLine = "stream:" + sk
		}
	default:
		kd, ok := j.Kernel.Digest()
		if !ok {
			return ""
		}
		kernelLine = kd
	}
	h := sha256.New()
	// Config has only value fields, so %#v is a canonical encoding.
	fmt.Fprintf(h, "config|%#v\n", *j.Config)
	fmt.Fprintf(h, "policy|%s\n", j.Policy)
	// The two model constants stay in the key so that changing either
	// one addresses new results instead of serving the old ones.
	o := j.Opts.Canonical()
	fmt.Fprintf(h, "opts|%d|%g|%d\n", o.MaxCycles, sim.BackgroundFlitsPerKInsn, sim.InjectionRate)
	fmt.Fprintf(h, "kernel|%s\n", kernelLine)
	return hex.EncodeToString(h.Sum(nil))
}

// diskSchemaVersion identifies the on-disk entry layout. Bump it when
// the entry format or the Stats counter set changes incompatibly; old
// entries are then quarantined and resimulated instead of being
// misdecoded. Version 1 was PR 1's bare Stats JSON with no envelope; it
// decodes as schema 0 here and is treated as stale.
const diskSchemaVersion = 2

// diskEntry is the on-disk envelope around a cached result: a schema
// version, a checksum of the payload, and the payload itself. The
// checksum covers the canonical (compact) JSON of Stats, so any
// bit-rot, truncation recovered by the JSON parser, or hand-editing is
// detected on load.
type diskEntry struct {
	Schema   int          `json:"schema"`
	Checksum string       `json:"checksum"`
	Stats    *stats.Stats `json:"stats"`
}

// statsChecksum returns the hex SHA-256 of st's compact JSON encoding.
func statsChecksum(st *stats.Stats) (string, error) {
	b, err := json.Marshal(st)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// validateEntry reports the first integrity problem with a decoded disk
// entry, or nil when the entry is trustworthy.
func validateEntry(e *diskEntry) error {
	if e.Schema != diskSchemaVersion {
		return fmt.Errorf("schema %d, want %d", e.Schema, diskSchemaVersion)
	}
	if e.Stats == nil {
		return fmt.Errorf("missing stats payload")
	}
	sum, err := statsChecksum(e.Stats)
	if err != nil {
		return err
	}
	if sum != e.Checksum {
		return fmt.Errorf("checksum mismatch: stored %.12s…, computed %.12s…", e.Checksum, sum)
	}
	// Revalidate the physical accounting identities: a cached result
	// that violates conservation was either corrupted in a way that
	// kept the checksum (impossible short of an attack, but cheap to
	// check) or written by a buggy engine build; both must resimulate.
	if err := e.Stats.CheckConservation(); err != nil {
		return err
	}
	return nil
}

// Cache is a content-addressed store of simulation results keyed by
// Job.Key. It always holds results in memory; when opened with
// OpenDiskCache it additionally persists every entry as JSON so results
// survive across processes. All methods are safe for concurrent use,
// and both Get and Put work on snapshots — a caller can never corrupt a
// cached entry through a returned pointer.
//
// Disk entries carry a schema version and a payload checksum and are
// revalidated against the stats conservation identities on load. An
// entry that fails any of those checks is quarantined — renamed to
// <key>.json.corrupt for post-mortem inspection — and the Get reports a
// miss, so the point is resimulated and rewritten instead of being
// silently trusted (wrong figures) or silently deleted (lost evidence).
type Cache struct {
	mu          sync.Mutex
	mem         map[string]*stats.Stats
	flights     map[string]chan struct{} // keys currently being simulated
	dir         string                   // empty: memory-only
	hits        uint64
	misses      uint64
	coalesced   uint64
	quarantined uint64
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{mem: make(map[string]*stats.Stats), flights: make(map[string]chan struct{})}
}

// beginFlight is the single-flight entry point for one cacheable key.
// Exactly one of three things happens, atomically with respect to Put:
//
//   - the key is already cached in memory: its snapshot comes back in
//     st (counted as a hit), and the caller is done;
//   - no flight is open for the key: the caller becomes the leader
//     (leader == true) and must simulate, Put on success, and then
//     finishFlight — even when the simulation fails;
//   - another caller holds the flight: wait is the open flight's
//     channel, closed at the leader's finishFlight. The caller waits,
//     then re-enters beginFlight: a hit if the leader published, a new
//     flight if it failed.
//
// The in-memory re-check under the same lock closes the Get-then-fly
// race: a leader that published between a caller's cache miss and its
// beginFlight is observed here as a hit, never as a duplicate flight.
func (c *Cache) beginFlight(key string) (st *stats.Stats, leader bool, wait <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.mem[key]; ok {
		c.hits++
		return st.Clone(), false, nil
	}
	if c.flights == nil {
		c.flights = make(map[string]chan struct{})
	}
	if ch, ok := c.flights[key]; ok {
		c.coalesced++
		return nil, false, ch
	}
	ch := make(chan struct{})
	c.flights[key] = ch
	return nil, true, nil
}

// finishFlight closes the key's flight, waking every waiter. The leader
// calls it after Put (success) or with nothing published (failure); the
// waiters' re-entry into beginFlight distinguishes the two.
func (c *Cache) finishFlight(key string) {
	c.mu.Lock()
	ch := c.flights[key]
	delete(c.flights, key)
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// OpenDiskCache returns a cache backed by dir (created if needed).
// Entries are written as <key>.json and loaded lazily on Get, so a
// fresh process reuses every point an earlier run simulated.
func OpenDiskCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	c := NewCache()
	c.dir = dir
	return c, nil
}

// Get returns a snapshot of the cached result for key, if present.
func (c *Cache) Get(key string) (*stats.Stats, bool) {
	c.mu.Lock()
	if st, ok := c.mem[key]; ok {
		c.hits++
		c.mu.Unlock()
		return st.Clone(), true
	}
	dir := c.dir
	c.mu.Unlock()

	if dir != "" {
		if st, ok := c.loadDisk(dir, key); ok {
			c.mu.Lock()
			c.mem[key] = st
			c.hits++
			c.mu.Unlock()
			return st.Clone(), true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// loadDisk reads and verifies one on-disk entry. Undecodable or
// integrity-failing entries are quarantined and reported as misses.
func (c *Cache) loadDisk(dir, key string) (*stats.Stats, bool) {
	path := filepath.Join(dir, key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	e := &diskEntry{}
	if err := json.Unmarshal(b, e); err != nil {
		c.quarantine(path)
		return nil, false
	}
	if err := validateEntry(e); err != nil {
		c.quarantine(path)
		return nil, false
	}
	return e.Stats, true
}

// quarantine moves a failed entry aside as <name>.corrupt. Renaming —
// not deleting — keeps the evidence for inspection while guaranteeing
// the bad entry can never be served again; the subsequent resimulation
// rewrites a fresh entry under the original name. A lost race (another
// worker already quarantined the same file) is benign.
func (c *Cache) quarantine(path string) {
	_ = os.Rename(path, path+".corrupt")
	c.mu.Lock()
	c.quarantined++
	c.mu.Unlock()
}

// Put stores a snapshot of st under key.
func (c *Cache) Put(key string, st *stats.Stats) {
	snap := st.Clone()
	c.mu.Lock()
	c.mem[key] = snap
	dir := c.dir
	c.mu.Unlock()

	if dir == "" {
		return
	}
	sum, err := statsChecksum(snap)
	if err != nil {
		return
	}
	b, err := json.MarshalIndent(&diskEntry{
		Schema:   diskSchemaVersion,
		Checksum: sum,
		Stats:    snap,
	}, "", "  ")
	if err != nil {
		return
	}
	// Persist via a same-directory temp file renamed into place, so
	// concurrent writers and readers — including other processes
	// sharing the cache directory — never observe a torn entry that the
	// checksum path would then quarantine spuriously; persistence
	// failures degrade to memory-only caching.
	path := filepath.Join(dir, key+".json")
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(b); err == nil {
		// CreateTemp opens 0600; published entries must be readable by
		// whatever account the next server or CLI sharing dir runs as.
		_ = tmp.Chmod(0o644)
		err = tmp.Close()
		if err == nil {
			_ = os.Rename(tmp.Name(), path)
			return
		}
	} else {
		tmp.Close()
	}
	_ = os.Remove(tmp.Name())
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Counters returns how many Gets were served from the cache and how
// many fell through to simulation.
func (c *Cache) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Coalesced returns how many cacheable jobs were deduplicated onto an
// identical in-flight simulation instead of starting their own.
func (c *Cache) Coalesced() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}

// Quarantined returns how many on-disk entries failed integrity
// verification and were moved aside as .corrupt files.
func (c *Cache) Quarantined() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}
